// Compile-fail check for the field tables (src/sim/fields.hpp): a record
// whose FieldTable leaves out one data member must not compile. ctest
// compiles this file twice with the tree's compiler — as is, where
// `unlisted` has no entry and the build must fail, and with
// -DASFSIM_LIST_EVERY_MEMBER, where it must succeed.
#include <cstdint>

#include "sim/fields.hpp"

namespace asfsim {

struct Record {
  std::uint32_t listed = 0;
  double unlisted = 0.0;
};

template <>
struct FieldTable<Record> {
  static constexpr auto fields = std::tuple{
      field(&Record::listed, {"listed"}),
#ifdef ASFSIM_LIST_EVERY_MEMBER
      field(&Record::unlisted, {"unlisted"}),
#endif
  };
};
static_assert(table_complete<Record>(), "every Record member needs an entry");

}  // namespace asfsim
