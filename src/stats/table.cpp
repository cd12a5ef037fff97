#include "stats/table.hpp"

#include <algorithm>
#include <cstdio>

namespace pofi::stats {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

Table& Table::add_row(std::vector<std::string> cells) {
  cells.resize(headers_.size());
  rows_.push_back(std::move(cells));
  return *this;
}

std::string Table::fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string Table::fmt(std::uint64_t v) { return std::to_string(v); }
std::string Table::fmt(std::int64_t v) { return std::to_string(v); }

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto pad = [](const std::string& s, std::size_t w) {
    std::string out = s;
    out.resize(w, ' ');
    return out;
  };
  std::string out;
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += pad(headers_[c], widths[c]);
    out += (c + 1 < headers_.size()) ? "  " : "";
  }
  out += '\n';
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    out += std::string(widths[c], '-');
    out += (c + 1 < headers_.size()) ? "  " : "";
  }
  out += '\n';
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out += pad(row[c], widths[c]);
      out += (c + 1 < row.size()) ? "  " : "";
    }
    out += '\n';
  }
  return out;
}

void Table::print() const { std::fputs(render().c_str(), stdout); }

void print_banner(const std::string& text) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", text.c_str());
  std::printf("============================================================\n");
}

}  // namespace pofi::stats
