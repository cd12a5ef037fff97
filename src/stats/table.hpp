// ASCII table rendering for example and bench output.
//
// Every report prints its tables through this so the output is uniform and
// diffable run-to-run.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace pofi::stats {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  Table& add_row(std::vector<std::string> cells);

  /// Convenience: format doubles/ints into cells.
  [[nodiscard]] static std::string fmt(double v, int precision = 2);
  [[nodiscard]] static std::string fmt(std::uint64_t v);
  [[nodiscard]] static std::string fmt(std::int64_t v);

  [[nodiscard]] std::string render() const;
  void print() const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Section banner used between experiments in bench output.
void print_banner(const std::string& text);

}  // namespace pofi::stats
