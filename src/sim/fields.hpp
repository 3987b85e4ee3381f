// Field tables: one list of data members per record.
//
// Every record the simulator serializes, hashes or exposes as flags (Stats,
// the config structs, FaultCounters) names each of its data members exactly
// once, in a FieldTable<Record> specialization next to the record. The stats
// blob, the jobspec hash, the CLI flags and the fault-counter manifest and
// report are loops over these tables (for_each_field), and every table
// static_asserts that it lists as many entries as the record has data
// members — a new field without a table entry is a compile error, not a
// silently dropped value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <tuple>
#include <type_traits>

namespace asfsim {

/// What a config field does to a job: change its results (so the jobspec
/// hash must cover it), or only how the host runs it.
enum class FieldRole : std::uint8_t { kResult, kHostOnly };

/// Which stats-blob section holds a Stats field. Each opt-in section opens
/// with its bool presence flag (stats/serialize.cpp).
enum class BlobSection : std::uint8_t { kCore, kProv, kCm };

struct FieldInfo {
  const char* key;
  FieldRole role = FieldRole::kResult;
  BlobSection section = BlobSection::kCore;
  /// CLI spelling of the knob ("--oltp-theta"), or null when it has none.
  const char* flag = nullptr;
  /// Accepted range of a double-valued flag.
  double lo = std::numeric_limits<double>::lowest();
  double hi = std::numeric_limits<double>::max();
};

template <class R, class T>
struct Field {
  FieldInfo info;
  T R::*member;
};

template <class R, class T>
constexpr Field<R, T> field(T R::*member, FieldInfo info) {
  return {info, member};
}

/// Specialized next to each record: `static constexpr std::tuple fields`.
template <class R>
struct FieldTable;

template <class T>
concept Tabled = requires { FieldTable<std::remove_const_t<T>>::fields; };

/// Call `v(info, member)` for each data member of `r`, in table order.
template <Tabled R, class V>
void for_each_field(R& r, V&& v) {
  std::apply([&](const auto&... f) { (v(f.info, r.*f.member), ...); },
             FieldTable<std::remove_const_t<R>>::fields);
}

namespace detail {

struct AnyField {
  template <class T>
  operator T() const;  // never defined: only used in unevaluated contexts
};

template <class R, class... A>
constexpr std::size_t field_count() {
  if constexpr (requires { R{A{}..., AnyField{}}; }) {
    return field_count<R, A..., AnyField>();
  } else {
    return sizeof...(A);
  }
}

}  // namespace detail

/// Data-member count of the aggregate R (brace-initializable from that many
/// values of any type, and not one more).
template <class R>
inline constexpr std::size_t kFieldCount = detail::field_count<R>();

/// True when R's table has one entry per data member; each table asserts it.
template <class R>
constexpr bool table_complete() {
  return std::tuple_size_v<std::remove_cvref_t<
             decltype(FieldTable<R>::fields)>> == kFieldCount<R>;
}

}  // namespace asfsim
