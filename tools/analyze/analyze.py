"""CLI driver for the semantic contract analyzer.

Usage (tools/run_analyze.sh wraps this):

  python3 -m tools.analyze.analyze [paths...] [--disable RULE]... [--list-rules]

Paths default to the repo's contract-bearing source directories. Output is
one finding per line, `file:line: [rule] message`, sorted; the exit code is
the number of unsuppressed findings (clamped to 1).
"""

import argparse
import os
import sys

from . import checks
from .cpp_model import Model
from .cpp_parser import parse_file

DEFAULT_DIRS = [
    "src/sim",
    "src/overlay",
    "src/mind",
    "src/space",
    "src/storage",
    "src/frontend",
    "src/util",
]


def repo_root():
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def collect_files(paths, root):
    out = []
    for p in paths:
        ap = p if os.path.isabs(p) else os.path.join(root, p)
        if os.path.isfile(ap):
            out.append(ap)
            continue
        for dirpath, _dirnames, filenames in os.walk(ap):
            for fn in sorted(filenames):
                if fn.endswith((".h", ".cc", ".cpp", ".hpp")):
                    out.append(os.path.join(dirpath, fn))
    return sorted(set(out))


def build_model(files, root):
    model = Model()
    for path in files:
        rel = os.path.relpath(path, root)
        try:
            model.add_file(parse_file(path, rel))
        except Exception as e:  # a parse gap must never kill the run
            print("analyze: warning: parser failed on %s: %s"
                  % (rel, e), file=sys.stderr)
    return model


def main(argv=None):
    ap = argparse.ArgumentParser(prog="analyze", description=__doc__)
    ap.add_argument("paths", nargs="*", default=None,
                    help="files or directories (default: contract dirs)")
    ap.add_argument("--disable", action="append", default=[],
                    metavar="RULE", help="disable one rule (repeatable)")
    ap.add_argument("--list-rules", action="store_true")
    ap.add_argument("--max-findings", type=int, default=0,
                    help="truncate output after N findings (0 = all)")
    args = ap.parse_args(argv)

    if args.list_rules:
        for name in sorted(checks.ALL_CHECKS):
            print(name)
        return 0

    for rule in args.disable:
        if rule not in checks.ALL_CHECKS:
            print("analyze: error: unknown rule '%s' (see --list-rules)"
                  % rule, file=sys.stderr)
            return 2

    root = repo_root()
    paths = args.paths or DEFAULT_DIRS
    files = collect_files(paths, root)
    if not files:
        print("analyze: error: no source files under: %s"
              % " ".join(paths), file=sys.stderr)
        return 2

    model = build_model(files, root)
    print("analyze: %d files, %d classes, %d function bodies"
          % (len(model.files), len(model.classes), len(model.functions)),
          file=sys.stderr)

    findings = checks.run_checks(model, disabled=set(args.disable))
    shown = findings if args.max_findings <= 0 \
        else findings[:args.max_findings]
    for f in shown:
        print("%s:%d: [%s] %s" % (f.file, f.line, f.rule, f.message))
    if len(shown) < len(findings):
        print("... %d more findings suppressed by --max-findings"
              % (len(findings) - len(shown)))
    print("analyze: %d finding(s) across %d file(s)"
          % (len(findings), len(model.files)), file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
