#include "ftl/mapping.hpp"

#include <algorithm>

namespace pofi::ftl {

std::optional<Ppn> MappingTable::lookup(Lpn lpn) const {
  const std::size_t slot = slot_of(lpn);
  if (slot == kNoSlot || chunks_[slot] == kUnmappedPpn) return std::nullopt;
  return chunks_[slot];
}

std::size_t MappingTable::slot_for_write(Lpn lpn) {
  const std::uint64_t region = lpn / kTranslationPageLpns;
  if (region >= dir_.size()) dir_.resize(static_cast<std::size_t>(region + 1), kNoChunk);
  if (dir_[region] == kNoChunk) {
    dir_[region] = static_cast<std::uint32_t>(translation_pages());
    chunks_.resize(chunks_.size() + kTranslationPageLpns, kUnmappedPpn);
  }
  return slot_of(lpn);
}

void MappingTable::set_slot(Lpn lpn, Ppn ppn) {
  Ppn& slot = chunks_[slot_for_write(lpn)];
  if (slot == kUnmappedPpn) ++mapped_count_;
  slot = ppn;
}

void MappingTable::clear_slot(Lpn lpn) {
  const std::size_t slot = slot_of(lpn);
  if (slot != kNoSlot && chunks_[slot] != kUnmappedPpn) {
    chunks_[slot] = kUnmappedPpn;
    --mapped_count_;
  }
}

MappingTable::Frame* MappingTable::frame_for(Lpn lpn) {
  if (policy_ != MappingPolicy::kHybridExtent) return nullptr;
  const auto it = frames_.find(frame_of(lpn));
  return it == frames_.end() ? nullptr : &it->second;
}

void MappingTable::add_unbatched(Frame* f) {
  ++unbatched_;
  if (f == nullptr) return;
  ++f->unbatched;
  if (withheld(*f)) ++withheld_unbatched_;
}

void MappingTable::drop_unbatched(Frame* f) {
  --unbatched_;
  if (f == nullptr) return;
  --f->unbatched;
  if (withheld(*f)) --withheld_unbatched_;
}

void MappingTable::mark_dirty(Lpn lpn, std::optional<Ppn> old_value) {
  auto it = volatile_.find(lpn);
  if (it == volatile_.end()) {
    volatile_.emplace(lpn, DirtyState{old_value, 0});
    ++unbatched_;
    if (policy_ == MappingPolicy::kHybridExtent) {
      // Frames close on stagnation only: an active sequential stream keeps
      // its whole recent region volatile (the extent is still growing),
      // while a random request's frames stop growing as soon as it drains.
      // Crossing min_extent_fill_ or reopening flips the frame to withheld,
      // so its dirty entries are re-filed around the update.
      Frame& f = frames_[frame_of(lpn)];
      if (withheld(f)) withheld_unbatched_ -= f.unbatched;
      f.touched += 1;
      f.dirty += 1;
      f.unbatched += 1;
      if (f.closed) f.closed = false;  // the stream revisited: reopen
      if (withheld(f)) withheld_unbatched_ += f.unbatched;
    }
    return;
  }
  if (it->second.batch != 0) {
    // Re-dirtied while a batch holding the previous value is in flight: once
    // that batch commits, the batched value (== current map_ value before
    // this update) is the durable one. The batch keeps the displaced value
    // in case it aborts instead.
    if (const auto bit = batches_.find(it->second.batch); bit != batches_.end()) {
      bit->second.redirtied.emplace_back(lpn, it->second.persisted);
    }
    it->second.persisted = old_value;
    it->second.batch = 0;
    add_unbatched(frame_for(lpn));
  }
  // batch == 0: first-touch persisted value stands.
}

void MappingTable::update(Lpn lpn, Ppn ppn) {
  mark_dirty(lpn, lookup(lpn));
  set_slot(lpn, ppn);
}

void MappingTable::remove(Lpn lpn) {
  const auto old = lookup(lpn);
  if (!old.has_value()) return;
  mark_dirty(lpn, old);
  clear_slot(lpn);
}

std::size_t MappingTable::volatile_count() const { return volatile_.size(); }

std::size_t MappingTable::open_extents() const {
  std::size_t n = 0;
  for (const auto& [id, f] : frames_) {
    if (withheld(f)) ++n;
  }
  return n;
}

std::uint64_t MappingTable::begin_persist_batch(bool include_withheld) {
  // Stagnation pass: a detected extent that stopped growing since the last
  // cut is an idle tail, not an active stream — close it.
  if (policy_ == MappingPolicy::kHybridExtent) {
    for (auto& [id, f] : frames_) {
      if (f.closed) continue;
      if (f.touched >= min_extent_fill_ && f.touched == f.at_last_cut) {
        f.closed = true;
        withheld_unbatched_ -= f.unbatched;  // was withheld, now journalable
        if (f.touched >= extent_pages_) ++extents_closed_full_;
      } else {
        f.at_last_cut = f.touched;
      }
    }
  }

  const std::size_t eligible = include_withheld ? unbatched_ : committable_count();
  if (eligible == 0) return 0;
  std::vector<Lpn> members;
  members.reserve(eligible);
  const std::uint64_t id = next_batch_++;
  for (auto& [lpn, st] : volatile_) {
    if (st.batch != 0) continue;
    Frame* f = frame_for(lpn);
    if (!include_withheld && f != nullptr && withheld(*f)) continue;
    st.batch = id;
    drop_unbatched(f);
    members.push_back(lpn);
  }
  // Canonical cut order: volatile_ is a hash table, whose iteration order
  // depends on its insertion/rehash history — state a snapshot restore
  // cannot (and should not) reproduce. Journal record order, and with it
  // "the last journaled LPN", must not depend on container history.
  std::sort(members.begin(), members.end());
  batches_.emplace(id, Batch{std::move(members), {}});
  return id;
}

std::size_t MappingTable::batch_size(std::uint64_t batch) const {
  const auto it = batches_.find(batch);
  return it == batches_.end() ? 0 : it->second.lpns.size();
}

void MappingTable::frame_entry_resolved(Lpn lpn) {
  if (policy_ != MappingPolicy::kHybridExtent) return;
  const auto it = frames_.find(frame_of(lpn));
  if (it == frames_.end()) return;
  Frame& f = it->second;
  if (f.dirty > 0) --f.dirty;
  // A fully drained frame is forgotten: `touched` must reflect the current
  // burst, not the whole campaign, or random traffic would slowly be
  // misclassified as sequential.
  if (f.dirty == 0) frames_.erase(it);
}

void MappingTable::commit_batch(std::uint64_t batch) {
  const auto it = batches_.find(batch);
  if (it == batches_.end()) return;
  for (const Lpn lpn : it->second.lpns) {
    const auto vit = volatile_.find(lpn);
    // Skip entries re-dirtied after the batch was cut; they stay volatile
    // with their persisted value already advanced to the batched one.
    if (vit != volatile_.end() && vit->second.batch == batch) {
      volatile_.erase(vit);
      frame_entry_resolved(lpn);
    }
  }
  batches_.erase(it);
}

void MappingTable::abort_batch(std::uint64_t batch) {
  const auto it = batches_.find(batch);
  if (it == batches_.end()) return;
  for (const Lpn lpn : it->second.lpns) {
    const auto vit = volatile_.find(lpn);
    if (vit != volatile_.end() && vit->second.batch == batch) {
      vit->second.batch = 0;
      add_unbatched(frame_for(lpn));
    }
  }
  // The batched value never became durable: re-dirtied members fall back to
  // what was persisted before the cut.
  for (const auto& [lpn, persisted] : it->second.redirtied) {
    const auto vit = volatile_.find(lpn);
    if (vit != volatile_.end()) vit->second.persisted = persisted;
  }
  batches_.erase(it);
}

std::vector<RevertedUpdate> MappingTable::on_power_lost() {
  // Members re-dirtied while their batch was in flight took the batched
  // value as their persisted one, but that batch never committed: fall back
  // to the value it displaced, as abort_batch does. Oldest batch last, so
  // the value from before the earliest uncommitted cut wins.
  std::vector<std::pair<std::uint64_t, const Batch*>> in_flight;
  in_flight.reserve(batches_.size());
  for (const auto& [id, batch] : batches_) in_flight.emplace_back(id, &batch);
  std::sort(in_flight.begin(), in_flight.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (const auto& [id, batch] : in_flight) {
    for (const auto& [lpn, persisted] : batch->redirtied) {
      const auto vit = volatile_.find(lpn);
      if (vit != volatile_.end()) vit->second.persisted = persisted;
    }
  }

  std::vector<RevertedUpdate> reverted;
  reverted.reserve(volatile_.size());
  for (const auto& [lpn, st] : volatile_) {
    RevertedUpdate r;
    r.lpn = lpn;
    r.dropped_ppn = lookup(lpn);
    r.restored_ppn = st.persisted;
    if (st.persisted.has_value()) {
      set_slot(lpn, *st.persisted);
    } else {
      clear_slot(lpn);
    }
    reverted.push_back(r);
  }
  volatile_.clear();
  batches_.clear();
  frames_.clear();
  unbatched_ = 0;
  withheld_unbatched_ = 0;
  return reverted;
}

}  // namespace pofi::ftl
