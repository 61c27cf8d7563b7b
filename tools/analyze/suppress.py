"""The suppression grammar every analyzer rule honours.

Two annotation forms, both line-comment based and both requiring a written
reason (docs/ANALYSIS.md documents the grammar normatively):

  // mind-lint: allow(<rule>): <reason>
      Suppresses one finding of <rule> on the same line or the line below.

  // mind-digest: skip(<reason>)
      Marks the data member declared on the same line (or the line below)
      as deliberately excluded from its class's DigestInto fold.

A suppression without a reason is itself reported as a finding: silent
opt-outs are exactly what the analyzer exists to prevent.
"""

import re

ALLOW_RE = re.compile(
    r"//\s*mind-lint:\s*allow\((?P<rule>[\w-]+)\)(?::\s*(?P<reason>\S.*))?")
DIGEST_SKIP_RE = re.compile(
    r"//\s*mind-digest:\s*skip\((?P<reason>[^)]*)\)")


class Suppressions:
    """Per-file suppression table, built from the raw source lines."""

    def __init__(self, raw_lines):
        # line number (1-based) -> list of (rule, reason, line_no)
        self.allows = {}
        # line number (1-based) -> reason for a digest skip
        self.digest_skips = {}
        # annotations missing a reason: list of (line_no, kind, detail)
        self.missing_reasons = []
        for idx, line in enumerate(raw_lines):
            ln = idx + 1
            m = ALLOW_RE.search(line)
            if m:
                rule = m.group("rule")
                reason = (m.group("reason") or "").strip()
                if not reason:
                    self.missing_reasons.append(
                        (ln, "allow", rule))
                self.allows.setdefault(ln, []).append((rule, reason))
            m = DIGEST_SKIP_RE.search(line)
            if m:
                reason = m.group("reason").strip()
                if not reason:
                    self.missing_reasons.append((ln, "digest-skip", ""))
                self.digest_skips[ln] = reason

    def allowed(self, line_no, rule):
        """True when `rule` is suppressed for code at `line_no`: the
        annotation sits on the line itself or on the line directly above."""
        for ln in (line_no, line_no - 1):
            for r, _reason in self.allows.get(ln, []):
                if r == rule:
                    return True
        return False

    def digest_skip_reason(self, line_no):
        """The skip reason covering the member declared at `line_no`
        (annotation on the line itself or the line above), or None."""
        for ln in (line_no, line_no - 1):
            if ln in self.digest_skips:
                return self.digest_skips[ln]
        return None
