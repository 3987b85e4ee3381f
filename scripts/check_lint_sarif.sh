#!/usr/bin/env bash
# Structural validation of asfsim_lint's SARIF output against the parts of
# the SARIF 2.1.0 schema we rely on (no network: the real JSON-schema file
# is not vendored, so this asserts the required shape directly).
#
# usage: check_lint_sarif.sh <asfsim_lint-binary> <fixtures-dir>
set -u

LINT=${1:?usage: check_lint_sarif.sh <asfsim_lint-binary> <fixtures-dir>}
DIR=${2:?usage: check_lint_sarif.sh <asfsim_lint-binary> <fixtures-dir>}

out=$(mktemp)
trap 'rm -f "$out"' EXIT

# Lint a flag fixture so the log contains results; SARIF mode still exits
# nonzero on findings, which is expected here.
"$LINT" --format sarif --output "$out" "$DIR/r1_flag.cpp" "$DIR/sim/r6_flag.cpp" 2>/dev/null
rc=$?
if [ "$rc" -ne 1 ]; then
  echo "FAIL: expected exit 1 (findings), got $rc"
  exit 1
fi

python3 - "$out" <<'EOF'
import json, sys

with open(sys.argv[1]) as fh:
    log = json.load(fh)

def need(cond, msg):
    if not cond:
        print(f"FAIL: sarif: {msg}")
        sys.exit(1)

need(log.get("version") == "2.1.0", "version must be 2.1.0")
need("sarif-schema-2.1.0" in log.get("$schema", ""), "$schema must point at SARIF 2.1.0")
runs = log.get("runs")
need(isinstance(runs, list) and len(runs) == 1, "exactly one run")
driver = runs[0]["tool"]["driver"]
need(driver["name"] == "asfsim_lint", "tool.driver.name")
rules = driver["rules"]
need(isinstance(rules, list) and len(rules) == 6, "driver.rules lists all six rules")
ids = [r["id"] for r in rules]
need(len(ids) == len(set(ids)), "rule ids unique")
for r in rules:
    need("shortDescription" in r and "text" in r["shortDescription"], f"rule {r['id']} shortDescription")
results = runs[0]["results"]
need(isinstance(results, list) and len(results) >= 6, "results present for both flag fixtures")
for res in results:
    need(res["ruleId"] in ids, "result ruleId matches a declared rule")
    need(ids[res["ruleIndex"]] == res["ruleId"], "ruleIndex consistent with ruleId")
    need(res["level"] == "error", "result level")
    need("text" in res["message"], "result message.text")
    loc = res["locations"][0]["physicalLocation"]
    need("uri" in loc["artifactLocation"], "artifactLocation.uri")
    need(isinstance(loc["region"]["startLine"], int) and loc["region"]["startLine"] >= 1, "region.startLine")
print(f"ok:   sarif log valid ({len(results)} results, {len(rules)} rules)")
EOF
exit $?
