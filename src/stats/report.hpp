// Small text-table and CSV helpers shared by the bench harness.
#pragma once

#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "fault/plan.hpp"

namespace asfsim {

/// Opt-in text-report section for injected-fault accounting. Only executed
/// fault-injected runs carry counters (cache hits come back with
/// has_fault_counters == false), so callers print this per-row on demand.
void print_fault_counters(std::ostream& os, const FaultCounters& fc);

/// Fixed-width text table: set headers, add string rows, print.
class TextTable {
 public:
  explicit TextTable(std::vector<std::string> headers);
  void add_row(std::vector<std::string> cells);
  void print(std::ostream& os) const;

  /// Formatting helpers.
  static std::string pct(double fraction, int decimals = 1);
  static std::string num(double v, int decimals = 2);

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// CSV writer; silently inactive when the path is empty.
class CsvWriter {
 public:
  CsvWriter(const std::string& dir, const std::string& name);
  void row(const std::vector<std::string>& cells);
  [[nodiscard]] bool active() const { return out_.is_open(); }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::ofstream out_;
  std::string path_;
};

/// One table cell and its CSV mirror: the text each side prints.
struct SheetValue {
  std::string table;
  std::string csv;
};

/// A figure's table and its CSV mirror, written one row at a time: each
/// column is named once as a (table header, CSV header) pair, and each row
/// gives one SheetValue per column. An empty header leaves that column out
/// of that side. The CSV (inactive without a directory, like CsvWriter)
/// gets its header at construction and each row as it is added; print()
/// prints the table.
class Sheet {
 public:
  Sheet(const std::string& csv_dir, const std::string& csv_name,
        const std::vector<SheetValue>& headers);
  void add(const std::vector<SheetValue>& row);
  void print(std::ostream& os) const { table_.print(os); }

 private:
  std::vector<SheetValue> headers_;
  TextTable table_;
  CsvWriter csv_;
};

/// Sheet values. count: the same digits on both sides. text: the same text.
/// pct: TextTable::pct in the table, the fraction to 4 decimals in the CSV.
/// num: TextTable::num at each side's number of decimals.
[[nodiscard]] SheetValue count(std::uint64_t n);
[[nodiscard]] SheetValue text(std::string s);
[[nodiscard]] SheetValue pct(double fraction);
[[nodiscard]] SheetValue num(double v, int table_decimals, int csv_decimals);

}  // namespace asfsim
