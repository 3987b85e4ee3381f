#include "stats/report.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <utility>

namespace asfsim {

namespace {

/// One side (`part`) of `row`, without the columns whose header leaves it
/// out.
std::vector<std::string> side(const std::vector<SheetValue>& headers,
                              const std::vector<SheetValue>& row,
                              std::string SheetValue::*part) {
  std::vector<std::string> out;
  for (std::size_t i = 0; i < headers.size(); ++i) {
    if (!(headers[i].*part).empty()) out.push_back(row[i].*part);
  }
  return out;
}

}  // namespace

TextTable::TextTable(std::vector<std::string> headers)
    : headers_(std::move(headers)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
}

void TextTable::print(std::ostream& os) const {
  std::vector<std::size_t> width(headers_.size(), 0);
  for (std::size_t i = 0; i < headers_.size(); ++i) {
    width[i] = headers_[i].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t i = 0; i < row.size() && i < width.size(); ++i) {
      if (row[i].size() > width[i]) width[i] = row[i].size();
    }
  }
  auto print_row = [&](const std::vector<std::string>& row) {
    for (std::size_t i = 0; i < width.size(); ++i) {
      const std::string& cell = i < row.size() ? row[i] : std::string{};
      os << (i == 0 ? "" : "  ");
      os << cell;
      for (std::size_t p = cell.size(); p < width[i]; ++p) os << ' ';
    }
    os << '\n';
  };
  print_row(headers_);
  std::size_t total = width.size() > 1 ? 2 * (width.size() - 1) : 0;
  for (const auto w : width) total += w;
  os << std::string(total, '-') << '\n';
  for (const auto& row : rows_) print_row(row);
}

std::string TextTable::pct(double fraction, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f%%", decimals, fraction * 100.0);
  return buf;
}

std::string TextTable::num(double v, int decimals) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
  return buf;
}

void print_fault_counters(std::ostream& os, const FaultCounters& fc) {
  // Counted injections first ("spurious aborts 3"), then one "<source>
  // jitter N events / M cycles" entry per *_events/*_cycles pair.
  const char* sep = "  injected faults: ";
  bool timing = false;
  for_each_field(fc, [&](const FieldInfo& f, std::uint64_t v) {
    std::string key = f.key;
    if (key.ends_with("_cycles")) {
      os << " / " << v << " cycles";
      return;
    }
    const bool events = key.ends_with("_events");
    if (events) {
      key.resize(key.size() - std::strlen("_events"));
      if (!timing) sep = "\n  timing perturbation: ";
      timing = true;
    }
    std::replace(key.begin(), key.end(), '_', ' ');
    os << sep << key << ' ' << v << (events ? " events" : "");
    sep = ", ";
  });
  os << '\n';
}

CsvWriter::CsvWriter(const std::string& dir, const std::string& name) {
  if (dir.empty()) return;
  path_ = dir + "/" + name + ".csv";
  out_.open(path_);
}

void CsvWriter::row(const std::vector<std::string>& cells) {
  if (!out_.is_open()) return;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i != 0) out_ << ',';
    out_ << cells[i];
  }
  out_ << '\n';
}

Sheet::Sheet(const std::string& csv_dir, const std::string& csv_name,
             const std::vector<SheetValue>& headers)
    : headers_(headers),
      table_(side(headers, headers, &SheetValue::table)),
      csv_(csv_dir, csv_name) {
  csv_.row(side(headers, headers, &SheetValue::csv));
}

void Sheet::add(const std::vector<SheetValue>& row) {
  assert(row.size() == headers_.size() && "one value per column");
  table_.add_row(side(headers_, row, &SheetValue::table));
  csv_.row(side(headers_, row, &SheetValue::csv));
}

SheetValue count(std::uint64_t n) {
  return {std::to_string(n), std::to_string(n)};
}

SheetValue text(std::string s) { return {s, std::move(s)}; }

SheetValue pct(double fraction) {
  return {TextTable::pct(fraction), TextTable::num(fraction, 4)};
}

SheetValue num(double v, int table_decimals, int csv_decimals) {
  return {TextTable::num(v, table_decimals), TextTable::num(v, csv_decimals)};
}

}  // namespace asfsim
