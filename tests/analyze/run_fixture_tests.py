#!/usr/bin/env python3
"""Golden tests for the semantic contract analyzer (tools/analyze/).

Each fixture under fixtures/ is a self-contained C++ file annotated with
`analyze-expect: <rule>` on every line where the analyzer must report a
finding. Rules scoped by directory (wall-clock, raw-alloc, ...) see the
fixture under the repository path named by an `analyze-as: <path>` line,
e.g. `// analyze-as: src/sim/fixture.cc`. This runner asserts, per fixture:

  1. the reported (line, rule) set matches the annotated set exactly —
     a broken or silently-skipped check fails the test because its expected
     findings never appear, and a over-eager check fails it with extras;
  2. disabling a rule via the --disable path removes exactly that rule's
     findings (proving findings are attributable to their check, and that
     the disable plumbing works).

Run directly (`python3 tests/analyze/run_fixture_tests.py`) or via ctest
(`analyze_fixtures`). Exit 0 on success.
"""

import os
import re
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(os.path.dirname(HERE))
sys.path.insert(0, REPO)

from tools.analyze import checks  # noqa: E402
from tools.analyze.cpp_model import Model  # noqa: E402
from tools.analyze.cpp_parser import parse_file  # noqa: E402

EXPECT_RE = re.compile(r"analyze-expect:\s*([\w-]+)")
AS_RE = re.compile(r"analyze-as:\s*(\S+)")


def expected_findings(path):
    out = set()
    with open(path, encoding="utf-8") as f:
        for idx, line in enumerate(f):
            for m in EXPECT_RE.finditer(line):
                out.add((idx + 1, m.group(1)))
    return out


def analyzed_as(path):
    with open(path, encoding="utf-8") as f:
        for line in f:
            m = AS_RE.search(line)
            if m:
                return m.group(1)
    return os.path.relpath(path, REPO)


def run_fixture(path):
    rel = os.path.relpath(path, REPO)
    model = Model()
    model.add_file(parse_file(path, analyzed_as(path)))

    expected = expected_findings(path)
    got_full = checks.run_checks(model)
    got = {(f.line, f.rule) for f in got_full}

    errors = []
    for ln, rule in sorted(expected - got):
        errors.append("  MISSING  %s:%d: [%s] (annotated, not reported)"
                      % (rel, ln, rule))
    for ln, rule in sorted(got - expected):
        msg = next(f.message for f in got_full
                   if (f.line, f.rule) == (ln, rule))
        errors.append("  SPURIOUS %s:%d: [%s] %s" % (rel, ln, rule, msg))

    # The --disable proof: with a rule off, its findings (and only its
    # findings) must disappear.
    for rule in sorted({r for _, r in expected}):
        got_disabled = {(f.line, f.rule)
                        for f in checks.run_checks(model, disabled={rule})}
        if any(r == rule for _, r in got_disabled):
            errors.append("  DISABLE  %s: [%s] still reported with the rule "
                          "disabled" % (rel, rule))
        survivors = {(ln, r) for ln, r in expected if r != rule}
        if not survivors <= got_disabled:
            errors.append("  DISABLE  %s: [%s] disabling it also dropped "
                          "other rules' findings" % (rel, rule))
    return errors


def main():
    fixture_dir = os.path.join(HERE, "fixtures")
    fixtures = sorted(
        os.path.join(fixture_dir, f) for f in os.listdir(fixture_dir)
        if f.endswith((".cc", ".h")))
    if not fixtures:
        print("run_fixture_tests: no fixtures found", file=sys.stderr)
        return 2

    failures = 0
    for path in fixtures:
        errors = run_fixture(path)
        name = os.path.basename(path)
        if errors:
            failures += 1
            print("FAIL %s" % name)
            for e in errors:
                print(e)
        else:
            print("ok   %s" % name)
    if failures:
        print("run_fixture_tests: %d of %d fixtures failed"
              % (failures, len(fixtures)), file=sys.stderr)
        return 1
    print("run_fixture_tests: all %d fixtures pass" % len(fixtures))
    return 0


if __name__ == "__main__":
    sys.exit(main())
