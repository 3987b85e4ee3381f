#include "sarif.hpp"

#include <cstdio>
#include <iterator>

namespace asfsim_lint {
namespace {

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

struct RuleMeta {
  const char* id;
  const char* short_desc;
};

// Keep ids in a stable order: ruleIndex in results points here.
constexpr RuleMeta kRules[] = {
    {"coawait-in-condition",
     "co_await inside an if/while/for/switch header or ternary condition "
     "(GCC 12 coroutine-frame miscompile, DESIGN.md s7)"},
    {"discarded-task",
     "Result of a Task-returning function is discarded; a dropped Task "
     "never runs its body"},
    {"global-alloc-in-tx",
     "Guest-thread code allocates via the global bump allocator instead of "
     "GuestCtx::alloc_local (fabricates WAW false sharing, DESIGN.md s6.9)"},
    {"raw-guest-access",
     "Guest-thread code uses host-side backdoors (poke/peek/backing/"
     "reinterpret_cast) instead of GuestCtx typed loads/stores"},
    {"nondeterministic-source",
     "Clock/entropy/environment read in simulator-affecting code; results "
     "must be a pure function of (config, seed)"},
    {"unordered-iteration",
     "Range-for over an unordered container in simulator-affecting code; "
     "iteration order is unspecified"},
};

int rule_index(const std::string& id) {
  for (int i = 0; i < static_cast<int>(std::size(kRules)); ++i) {
    if (id == kRules[i].id) return i;
  }
  return -1;
}

}  // namespace

std::string to_sarif(const std::vector<Diagnostic>& diags) {
  std::string out;
  out +=
      "{\n"
      "  \"$schema\": "
      "\"https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
      "Schemata/sarif-schema-2.1.0.json\",\n"
      "  \"version\": \"2.1.0\",\n"
      "  \"runs\": [\n"
      "    {\n"
      "      \"tool\": {\n"
      "        \"driver\": {\n"
      "          \"name\": \"asfsim_lint\",\n"
      "          \"version\": \"2.0.0\",\n"
      "          \"informationUri\": "
      "\"https://example.invalid/asfsim/docs/static_analysis.md\",\n"
      "          \"rules\": [\n";
  for (std::size_t i = 0; i < std::size(kRules); ++i) {
    out += "            {\n";
    out += "              \"id\": \"" + std::string(kRules[i].id) + "\",\n";
    out += "              \"shortDescription\": { \"text\": \"" +
           json_escape(kRules[i].short_desc) + "\" },\n";
    out += "              \"defaultConfiguration\": { \"level\": \"error\" }\n";
    out += i + 1 < std::size(kRules) ? "            },\n" : "            }\n";
  }
  out +=
      "          ]\n"
      "        }\n"
      "      },\n"
      "      \"results\": [\n";
  for (std::size_t i = 0; i < diags.size(); ++i) {
    const Diagnostic& d = diags[i];
    out += "        {\n";
    out += "          \"ruleId\": \"" + json_escape(d.rule) + "\",\n";
    const int ri = rule_index(d.rule);
    if (ri >= 0) {
      out += "          \"ruleIndex\": " + std::to_string(ri) + ",\n";
    }
    out += "          \"level\": \"error\",\n";
    out += "          \"message\": { \"text\": \"" + json_escape(d.message) +
           "\" },\n";
    out +=
        "          \"locations\": [\n"
        "            {\n"
        "              \"physicalLocation\": {\n"
        "                \"artifactLocation\": { \"uri\": \"" +
        json_escape(d.path) +
        "\" },\n"
        "                \"region\": { \"startLine\": " +
        std::to_string(d.line) +
        " }\n"
        "              }\n"
        "            }\n"
        "          ]\n";
    out += i + 1 < diags.size() ? "        },\n" : "        }\n";
  }
  out +=
      "      ]\n"
      "    }\n"
      "  ]\n"
      "}\n";
  return out;
}

}  // namespace asfsim_lint
