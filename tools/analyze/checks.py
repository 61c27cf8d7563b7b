"""The contract rules. Each check walks the merged Model and yields
Finding(file, line, rule, message) tuples.

Rules (docs/ANALYSIS.md is the narrative version):

  digest-coverage   every non-exempt data member of a class that defines
                    DigestInto must be referenced by the digest fold
                    (same-class callees included) or carry an explicit
                    `// mind-digest: skip(<reason>)`.
  backend-purity    the store layout class (SortedRunsBackend, and any class
                    deriving from it) must not reference telemetry, Rng,
                    EventQueue or other simulation-visible types (DESIGN.md
                    §13, digest transparency).
  phase-safety      in a class that phase-guards mutations with
                    MIND_CHECK(!InParallelPhase()), every method that writes
                    a data member must carry the guard (directly or via a
                    same-class callee) or a reasoned allow.
  unordered-emit    a range-for over a type that resolves to an unordered
                    container may not emit events/messages from its body
                    (iteration order is unspecified => nondeterminism).
  suppression-reason  every suppression annotation must state a reason.

Source-text rules, applied line by line (comments and literals blanked) in
the simulation-facing directories LINT_DIRS only:

  wall-clock        no std::chrono clocks, time(), gettimeofday or
                    clock_gettime; virtual time comes from EventQueue::now().
  libc-rand         no rand()/srand()/std::random_device; all randomness
                    flows through the seeded mind::Rng.
  concurrency       no threading headers or primitives outside
                    src/sim/parallel_engine.*, the one place threads exist.
  raw-alloc         no malloc/raw `new`/std::make_shared in the pooled
                    directories src/sim and src/overlay; placement new stays
                    legal (it is how the pools construct into their storage).
"""

import re
from collections import namedtuple

Finding = namedtuple("Finding", ["file", "line", "rule", "message"])

# ---------------------------------------------------------------------------
# Shared type-text helpers. Type texts are space-joined token spellings.

_ASSIGN_OPS = {"=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
               "<<=", ">>="}
_MUTATING_METHODS = {
    "clear", "resize", "push_back", "pop_back", "emplace", "emplace_back",
    "emplace_front", "push_front", "pop_front", "erase", "insert", "assign",
    "swap", "reserve", "reset", "merge", "extract", "try_emplace",
    "insert_or_assign",
}
_UNORDERED_RE = re.compile(
    r"\bunordered_(?:map|set|multimap|multiset)\b")

EMIT_NAMES = {
    "Send", "SendRaw", "SendDirect", "Route", "Broadcast",
    "Schedule", "ScheduleAt", "ScheduleAtKeyed", "ScheduleKeyed",
    "DispatchKeyed", "ScheduleOn",
}


def _type_words(type_text):
    return re.findall(r"[A-Za-z_][A-Za-z0-9_]*|[^\sA-Za-z0-9_]+", type_text)


def _top_level_syms(type_text):
    """The punctuation appearing at angle-depth 0 of a type text."""
    depth = 0
    out = []
    for w in _type_words(type_text):
        for ch_group in (w,):
            if ch_group == "<":
                depth += 1
            elif ch_group == ">":
                depth = max(0, depth - 1)
            elif ch_group == ">>":
                depth = max(0, depth - 2)
            elif depth == 0 and not ch_group[0].isalpha() \
                    and ch_group[0] != "_":
                out.append(ch_group)
    return out

def is_pointer_type(type_text):
    return any("*" in s for s in _top_level_syms(type_text))


def is_reference_type(type_text):
    return any(s in ("&", "&&") for s in _top_level_syms(type_text))


def is_function_type(type_text):
    return re.search(r"\bfunction\b", type_text) is not None


def outer_class_name(type_text):
    """`std::vector<Foo> ` -> `std::vector`; strips const/cv and refs."""
    words = []
    for w in _type_words(type_text):
        if w == "<":
            break
        if w in ("const", "volatile", "typename", "struct", "class"):
            continue
        if not (w[0].isalpha() or w[0] == "_") and w != "::":
            continue
        words.append(w)
    return "".join(words)


# ---------------------------------------------------------------------------
# Check 1: digest-coverage.

def _digest_closure_ids(model, cls, fn):
    """All identifier spellings reachable from fn's body through same-class
    callees (transitively): the set of names the digest fold 'touches'."""
    ids = set()
    seen_fns = set()
    stack = [fn]
    while stack:
        f = stack.pop()
        key = (f.file, f.line)
        if key in seen_fns:
            continue
        seen_fns.add(key)
        body = f.body or []
        for idx, t in enumerate(body):
            if t.kind != "id":
                continue
            ids.add(t.text)
            if idx + 1 < len(body) and body[idx + 1].text == "(":
                callee = model.find_method(cls, t.text)
                if callee is not None:
                    stack.append(callee)
    return ids


def _is_instrument_struct(model, cls, type_text):
    """True for nested 'instrument' structs: every non-static member is a
    pointer or a std::function (pure plumbing, nothing to digest)."""
    name = outer_class_name(model.resolve_type_text(type_text, cls))
    if not name:
        return False
    ci = model.find_class(name, near=cls.qual_name)
    if ci is None or not ci.members:
        return False
    for m in ci.members:
        if m.is_static:
            continue
        rt = model.resolve_type_text(m.type_text, ci)
        if not (is_pointer_type(rt) or is_function_type(rt)):
            return False
    return True


def check_digest_coverage(model):
    findings = []
    for cls in model.classes.values():
        fn = None
        for cand in model.methods_of(cls.qual_name):
            if cand.name == "DigestInto":
                fn = cand
                break
        if fn is None:
            continue
        touched = _digest_closure_ids(model, cls, fn)
        fm = _file_model_for(model, cls.file)
        for m in cls.members:
            if m.name in touched:
                continue
            if m.is_static or m.is_mutable:
                continue
            rt = model.resolve_type_text(m.type_text, cls)
            if is_pointer_type(rt) or is_reference_type(rt) or \
                    is_function_type(rt):
                continue  # identity/plumbing, not simulation state
            if _is_instrument_struct(model, cls, m.type_text):
                continue
            mfm = _file_model_for(model, m.file) or fm
            sup = mfm.suppressions if mfm else None
            if sup is not None and (
                    sup.digest_skip_reason(m.line) is not None or
                    sup.allowed(m.line, "digest-coverage")):
                continue
            findings.append(Finding(
                m.file, m.line, "digest-coverage",
                "member '%s' of %s is not folded into DigestInto and has "
                "no '// mind-digest: skip(<reason>)' annotation"
                % (m.name, cls.qual_name)))
    return findings


# ---------------------------------------------------------------------------
# Check 2: backend-purity.

# The store's physical layout: a pure data structure behind TupleStore.
_LAYOUT_CLASS = "SortedRunsBackend"

# Simulation-visible / nondeterminism-adjacent identifiers the store layout
# has no business naming (DESIGN.md §13: the layout is a pure data structure;
# telemetry counters are the one sanctioned, reasoned exception).
_BACKEND_FORBIDDEN = {
    "telemetry": "telemetry namespace",
    "MetricsRegistry": "telemetry type",
    "Counter": "telemetry type",
    "SimHistogram": "telemetry type",
    "Histogram": "telemetry type",
    "Gauge": "telemetry type",
    "Rng": "random-number generator",
    "EventQueue": "simulation type",
    "Simulator": "simulation type",
    "Network": "simulation type",
    "ParallelEngine": "simulation type",
    "SimTime": "simulation type",
    "EventFn": "simulation type",
}


def _scan_forbidden_tokens(toks, file, sup, reported, findings, ctx):
    for t in toks:
        if t.kind != "id" or t.text not in _BACKEND_FORBIDDEN:
            continue
        key = (file, t.line, t.text)
        if key in reported:
            continue
        reported.add(key)
        if sup is not None and sup.allowed(t.line, "backend-purity"):
            continue
        findings.append(Finding(
            file, t.line, "backend-purity",
            "%s references '%s' (%s); the store layout must stay "
            "simulation-blind (DESIGN.md §13)"
            % (ctx, t.text, _BACKEND_FORBIDDEN[t.text])))


def _scan_forbidden_text(text, file, line, sup, reported, findings, ctx):
    for word in re.findall(r"[A-Za-z_][A-Za-z0-9_]*", text):
        if word not in _BACKEND_FORBIDDEN:
            continue
        key = (file, line, word)
        if key in reported:
            continue
        reported.add(key)
        if sup is not None and sup.allowed(line, "backend-purity"):
            continue
        findings.append(Finding(
            file, line, "backend-purity",
            "%s references '%s' (%s); the store layout must stay "
            "simulation-blind (DESIGN.md §13)"
            % (ctx, word, _BACKEND_FORBIDDEN[word])))


def _layout_classes(model):
    out = [ci for ci in model.classes.values()
           if ci.qual_name == _LAYOUT_CLASS
           or ci.qual_name.endswith("::" + _LAYOUT_CLASS)]
    return out + [ci for ci in model.derived_of(_LAYOUT_CLASS)
                  if ci not in out]


def check_backend_purity(model):
    findings = []
    reported = set()
    for cls in _layout_classes(model):
        cls_sup = _suppressions_for(model, cls.file)
        for m in cls.members:
            _scan_forbidden_text(
                m.type_text, m.file, m.line,
                _suppressions_for(model, m.file) or cls_sup,
                reported, findings,
                "member '%s' of %s" % (m.name, cls.qual_name))
        cls_fm = _file_model_for(model, cls.file)
        if cls_fm is not None:
            for md in cls.method_decls:
                # Scan the declaration line (and its continuation) with
                # comments stripped; in-class decls carry the parameter
                # types the model doesn't retain.
                for ln in (md.line, md.line + 1):
                    if 1 <= ln <= len(cls_fm.raw_lines):
                        text = cls_fm.raw_lines[ln - 1].split("//")[0]
                        # Report (and honor allows) at the declaration's
                        # first line, wherever the reference sits.
                        _scan_forbidden_text(
                            text, cls.file, md.line, cls_sup, reported,
                            findings, "declaration of %s::%s"
                            % (cls.name, md.name))
                    if ln <= len(cls_fm.raw_lines) and (
                            ");" in cls_fm.raw_lines[ln - 1] or
                            "{" in cls_fm.raw_lines[ln - 1]):
                        break
        for fn in model.methods_of(cls.qual_name):
            fn_sup = _suppressions_for(model, fn.file)
            _scan_forbidden_text(
                fn.param_text + " " + (fn.return_type or ""),
                fn.file, fn.line, fn_sup, reported, findings,
                "signature of %s::%s" % (cls.name, fn.name))
            _scan_forbidden_tokens(
                fn.body or [], fn.file, fn_sup, reported, findings,
                "%s::%s" % (cls.name, fn.name))
    findings_sorted = sorted(findings)
    return findings_sorted


# ---------------------------------------------------------------------------
# Check 3: phase-safety.

def _has_phase_guard(body):
    """True when the body contains MIND_CHECK(!InParallelPhase())."""
    toks = body or []
    for i, t in enumerate(toks):
        if t.kind == "id" and t.text == "MIND_CHECK":
            window = toks[i + 1:i + 8]
            texts = [w.text for w in window]
            if "InParallelPhase" in texts and "!" in texts:
                return True
    return False


def _member_mutations(body, member_names):
    """Yields (member_name, line) for each syntactic write to a data member
    in `body`: assignment/compound-assignment, ++/--, or a call to a known
    mutating container method, including through [index] and .field chains
    rooted at the member."""
    toks = body or []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if t.kind != "id" or t.text not in member_names:
            i += 1
            continue
        prev = toks[i - 1] if i > 0 else None
        if prev is not None and prev.kind == "punct" and \
                prev.text in (".", "::"):
            i += 1
            continue  # other.foo_ / Qualified::foo_ — not this object
        if prev is not None and prev.text == "->" and not (
                i >= 2 and toks[i - 2].kind == "id" and
                toks[i - 2].text == "this"):
            i += 1
            continue
        name = t.text
        line = t.line
        if prev is not None and prev.text in ("++", "--"):
            yield (name, line)
            i += 1
            continue
        # Walk the access chain: member [idx]* ( .field | ->field )* op
        j = i + 1
        mutated = False
        while j < n:
            nt = toks[j]
            if nt.text == "[":
                depth = 0
                while j < n:
                    if toks[j].text == "[":
                        depth += 1
                    elif toks[j].text == "]":
                        depth -= 1
                        if depth == 0:
                            break
                    j += 1
                j += 1
                continue
            if nt.text in (".", "->"):
                if j + 1 < n and toks[j + 1].kind == "id":
                    field = toks[j + 1].text
                    if field in _MUTATING_METHODS and j + 2 < n and \
                            toks[j + 2].text == "(":
                        mutated = True
                        break
                    j += 2
                    continue
                break
            if nt.text in _ASSIGN_OPS or nt.text in ("++", "--"):
                mutated = True
                break
            break
        if mutated:
            yield (name, line)
        i += 1


def check_phase_safety(model):
    findings = []
    for cls in model.classes.values():
        methods = model.methods_of(cls.qual_name)
        if not methods:
            continue
        guarded = {fn.name for fn in methods if _has_phase_guard(fn.body)}
        if not guarded:
            continue  # class does not participate in the phase protocol
        member_names = {m.name for m in cls.members if not m.is_static}
        for fn in methods:
            if fn.name in guarded:
                continue
            if fn.name == cls.name or fn.name.startswith("~"):
                continue  # construction/destruction precede sharing
            calls_guarded = False
            body = fn.body or []
            for idx, t in enumerate(body):
                if t.kind == "id" and t.text in guarded and \
                        idx + 1 < len(body) and body[idx + 1].text == "(":
                    prev = body[idx - 1] if idx > 0 else None
                    if prev is None or prev.text not in (".", "->", "::") \
                            or (idx >= 2 and body[idx - 2].text == "this"):
                        calls_guarded = True
                        break
            if calls_guarded:
                continue
            sup = _suppressions_for(model, fn.file)
            for mname, line in _member_mutations(body, member_names):
                if sup is not None and sup.allowed(line, "phase-safety"):
                    continue
                findings.append(Finding(
                    fn.file, line, "phase-safety",
                    "%s::%s writes '%s' without "
                    "MIND_CHECK(!InParallelPhase()); world-state mutation "
                    "during a parallel phase breaks determinism"
                    % (cls.name, fn.name, mname)))
    return findings


# ---------------------------------------------------------------------------
# Check 4: unordered-emit (v2 — real type resolution).

def _collect_auto_locals(model, fn, cls):
    """name -> declared-or-inferred type text for `auto x = expr;` and
    simple `Type x = expr;` locals in fn's body."""
    locals_ = {}
    body = fn.body or []
    n = len(body)
    i = 0
    while i < n:
        t = body[i]
        if t.kind == "id" and t.text == "auto":
            j = i + 1
            while j < n and body[j].text in ("&", "&&", "*", "const"):
                j += 1
            if j < n and body[j].kind == "id" and j + 1 < n and \
                    body[j + 1].text == "=":
                name = body[j].text
                k = j + 2
                expr = []
                depth = 0
                while k < n:
                    tt = body[k]
                    if tt.text in ("(", "[", "{"):
                        depth += 1
                    elif tt.text in (")", "]", "}"):
                        depth -= 1
                    elif tt.text == ";" and depth <= 0:
                        break
                    expr.append(tt)
                    k += 1
                rt = resolve_expr_type(model, expr, fn, cls, locals_)
                if rt:
                    locals_[name] = rt
                i = k
                continue
        i += 1
    return locals_


def resolve_expr_type(model, expr, fn, cls, locals_=None):
    """Best-effort static type of an expression token list: members (with
    inheritance), locals, one-level field chains, calls resolved to return
    types. Returns a type text or None."""
    locals_ = locals_ or {}
    toks = [t for t in expr if t.text not in ("const", "&", "&&")]
    if not toks:
        return None
    cur_type = None
    i = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.text == "*" and cur_type is None:
            i += 1
            continue
        if t.text in (".", "->", "::"):
            i += 1
            continue
        if t.text == "(":
            # parenthesized subexpression — recurse over its contents
            depth = 0
            j = i
            while j < n:
                if toks[j].text == "(":
                    depth += 1
                elif toks[j].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                j += 1
            if cur_type is None:
                cur_type = resolve_expr_type(
                    model, toks[i + 1:j], fn, cls, locals_)
            i = j + 1
            continue
        if t.kind != "id":
            return None
        is_call = i + 1 < n and toks[i + 1].text == "("
        if cur_type is None:
            if t.text == "this":
                cur_type = cls.qual_name if cls else None
                i += 1
                continue
            if is_call:
                callee = model.find_method(cls, t.text) if cls else None
                if callee is None:
                    callee = next(
                        (f for f in model.functions
                         if f.owner_class is None and f.name == t.text),
                        None)
                if callee is None or not callee.return_type:
                    return None
                cur_type = callee.return_type
            elif t.text in locals_:
                cur_type = locals_[t.text]
            else:
                m = model.find_member(cls, t.text) if cls else None
                if m is None:
                    return None
                cur_type = m.type_text
        else:
            owner = model.find_class(
                outer_class_name(model.resolve_type_text(cur_type, cls)),
                near=cls.qual_name if cls else None)
            if owner is None:
                return None
            if is_call:
                callee = model.find_method(owner, t.text)
                if callee is None or not callee.return_type:
                    return None
                cur_type = callee.return_type
            else:
                m = model.find_member(owner, t.text)
                if m is None:
                    al = model.class_alias(owner, t.text)
                    if al is None:
                        return None
                    cur_type = al
                else:
                    cur_type = m.type_text
        if is_call:
            depth = 0
            while i < n:
                if toks[i].text == "(":
                    depth += 1
                elif toks[i].text == ")":
                    depth -= 1
                    if depth == 0:
                        break
                i += 1
        i += 1
        # trailing [index]: element access — approximate as mapped/value
        # type unknown; stop resolving chains through subscripts.
        if i < n and toks[i].text == "[":
            return None
    return cur_type


def _range_fors(body):
    """Yields (line, range_expr_tokens, body_tokens) for each range-based
    for in the token stream (nested loops included)."""
    toks = body or []
    n = len(toks)
    i = 0
    while i < n:
        t = toks[i]
        if not (t.kind == "id" and t.text == "for" and i + 1 < n and
                toks[i + 1].text == "("):
            i += 1
            continue
        # find matching ')'
        depth = 0
        j = i + 1
        colon = None
        while j < n:
            tt = toks[j]
            if tt.text == "(":
                depth += 1
            elif tt.text == ")":
                depth -= 1
                if depth == 0:
                    break
            elif tt.text == ":" and depth == 1 and colon is None:
                colon = j
            j += 1
        if colon is None:
            i = j + 1
            continue
        range_expr = toks[colon + 1:j]
        # loop body extent
        k = j + 1
        if k < n and toks[k].text == "{":
            depth = 0
            end = k
            while end < n:
                if toks[end].text == "{":
                    depth += 1
                elif toks[end].text == "}":
                    depth -= 1
                    if depth == 0:
                        break
                end += 1
            loop_body = toks[k + 1:end]
            nxt = end + 1
        else:
            end = k
            while end < n and toks[end].text != ";":
                end += 1
            loop_body = toks[k:end]
            nxt = end + 1
        yield (t.line, range_expr, loop_body)
        i = k  # descend into the body for nested loops
        del nxt
    return


def _body_emits(body):
    """The first (line, name) of an emit call in the token stream, else
    None."""
    toks = body or []
    for idx, t in enumerate(toks):
        if t.kind == "id" and t.text in EMIT_NAMES and \
                idx + 1 < len(toks) and toks[idx + 1].text == "(":
            return (t.line, t.text)
    return None


def check_unordered_emit(model):
    findings = []
    for fn in model.functions:
        cls = model.classes.get(fn.owner_class) if fn.owner_class else None
        if cls is None and fn.owner_class:
            cls = model.find_class(fn.owner_class)
        locals_ = _collect_auto_locals(model, fn, cls)
        sup = _suppressions_for(model, fn.file)
        for line, range_expr, loop_body in _range_fors(fn.body):
            emit = _body_emits(loop_body)
            if emit is None:
                continue
            rt = resolve_expr_type(model, range_expr, fn, cls, locals_)
            if rt is None:
                # Fall back to the spelled expression itself (a literal
                # `std::unordered_map<...>` temporary, say).
                rt = " ".join(t.text for t in range_expr)
            resolved = model.resolve_type_text(rt, cls)
            if not _UNORDERED_RE.search(resolved):
                continue
            if sup is not None and sup.allowed(line, "unordered-emit"):
                continue
            findings.append(Finding(
                fn.file, line, "unordered-emit",
                "%s iterates an unordered container (resolved type '%s') "
                "and calls %s() in the loop body; iteration order is "
                "unspecified, so emission order is nondeterministic"
                % (fn.qual_name, _shorten(resolved), emit[1])))
    return findings


def _shorten(text, limit=60):
    text = re.sub(r"\s+", " ", text).strip()
    return text if len(text) <= limit else text[:limit - 3] + "..."


# ---------------------------------------------------------------------------
# Check 5: suppression hygiene.

def check_suppression_reasons(model):
    findings = []
    for fm in model.files:
        sup = fm.suppressions
        if sup is None:
            continue
        for line, kind, detail in sup.missing_reasons:
            if kind == "allow":
                msg = ("'mind-lint: allow(%s)' has no reason; write "
                       "'// mind-lint: allow(%s): <why>'" % (detail, detail))
            else:
                msg = ("'mind-digest: skip()' has no reason; write "
                       "'// mind-digest: skip(<why>)'")
            findings.append(Finding(
                fm.relpath, line, "suppression-reason", msg))
    return findings


# ---------------------------------------------------------------------------
# Checks 6-9: source-text rules. They need no declarations, only each file's
# lines, and apply only under LINT_DIRS (src/util, say, is never linted).

LINT_DIRS = ("src/sim", "src/overlay", "src/mind", "src/space", "src/storage",
             "src/frontend")
# The pooled hot paths: message and event payloads there flow through
# pool::Allocate (sim/message.h MakeMessage, sim/event_fn.h EventFn,
# DESIGN.md §14), so a raw heap allocation reopens the general-heap churn
# the pools eliminate.
POOLED_DIRS = ("src/sim", "src/overlay")
# The one engine boundary allowed to hold threading primitives.
CONCURRENCY_EXEMPT = "src/sim/parallel_engine."

_WALL_CLOCK_MSG = ("wall-clock reads are forbidden; use EventQueue::now() "
                   "virtual time")
_CONCURRENCY_MSG = ("threading primitives are confined to "
                    "src/sim/parallel_engine.*; an ad-hoc lock or atomic "
                    "would hide a cross-shard ordering dependency the "
                    "engine cannot see")

# rule -> [(pattern, message)]
_TEXT_RULES = {
    "wall-clock": [
        (re.compile(r"std::chrono::(system_clock|steady_clock|"
                    r"high_resolution_clock)"), _WALL_CLOCK_MSG),
        (re.compile(r"\b(gettimeofday|clock_gettime)\s*\("), _WALL_CLOCK_MSG),
        (re.compile(r"(\b|::)time\s*\(\s*(NULL|nullptr|0)?\s*\)"),
         "libc time() is forbidden; use EventQueue::now() virtual time"),
    ],
    "libc-rand": [
        (re.compile(r"\b(rand|srand)\s*\(\s*(\)|\w)"),
         "libc randomness is forbidden; use the seeded mind::Rng"),
        (re.compile(r"\brandom_device\b"),
         "std::random_device is unseedable; use the seeded mind::Rng"),
    ],
    "concurrency": [
        (re.compile(r"#\s*include\s*<(thread|mutex|shared_mutex|atomic|"
                    r"condition_variable|future|semaphore|barrier|latch|"
                    r"stop_token)>"),
         "threading headers are confined to src/sim/parallel_engine.*; "
         "simulation code runs single-threaded within its shard"),
        (re.compile(r"std::(jthread|thread|mutex|shared_mutex|"
                    r"recursive_mutex|timed_mutex|recursive_timed_mutex|"
                    r"condition_variable\w*|atomic\w*|future|shared_future|"
                    r"promise|async|counting_semaphore|binary_semaphore|"
                    r"barrier|latch|lock_guard|unique_lock|scoped_lock|"
                    r"shared_lock|call_once|once_flag|memory_order\w*|"
                    r"this_thread)\b"), _CONCURRENCY_MSG),
    ],
    "raw-alloc": [
        (re.compile(r"\b(malloc|calloc|realloc|aligned_alloc|posix_memalign|"
                    r"strdup)\s*\("),
         "libc heap allocation is banned on pooled paths; allocate through "
         "pool::Allocate (sim/message.h MakeMessage, sim/event_fn.h EventFn)"),
        # The lookbehind rejects `::new`, and a `(` after the keyword never
        # matches, so placement new (`::new (p) T`, `new (mem) T`) is legal.
        (re.compile(r"(?<!:)\bnew\s+[A-Za-z_:]"),
         "raw `new` is banned on pooled paths; allocate through MakeMessage "
         "/ EventFn / pool::Allocate (placement `::new (p) T` is allowed)"),
        (re.compile(r"\bmake_shared\s*<"),
         "std::make_shared puts message payloads on the general heap; "
         "construct messages with MakeMessage (pool-backed "
         "allocate_shared)"),
    ],
}


def _under(relpath, dirs):
    return any(relpath.startswith(d + "/") for d in dirs)


def _text_rule_applies(rule, relpath):
    if not _under(relpath, LINT_DIRS):
        return False
    if rule == "concurrency":
        return not relpath.startswith(CONCURRENCY_EXEMPT)
    if rule == "raw-alloc":
        return _under(relpath, POOLED_DIRS)
    return True


def _blank_comments_and_strings(line):
    """Blanks string/char literals and a trailing // comment, keeping the
    line length so findings still point at the right line."""
    out = []
    i, n = 0, len(line)
    in_str = None
    while i < n:
        c = line[i]
        if in_str:
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            out.append(" ")
            if c == in_str:
                in_str = None
            i += 1
            continue
        if c in "\"'":
            in_str = c
            out.append(" ")
            i += 1
            continue
        if c == "/" and i + 1 < n and line[i + 1] == "/":
            out.append(" " * (n - i))
            break
        out.append(c)
        i += 1
    return "".join(out)


def _make_text_check(rule):
    patterns = _TEXT_RULES[rule]

    def check(model):
        findings = []
        for fm in model.files:
            relpath = fm.relpath.replace("\\", "/")
            if not _text_rule_applies(rule, relpath):
                continue
            for idx, raw in enumerate(fm.raw_lines):
                code = _blank_comments_and_strings(raw)
                for rx, msg in patterns:
                    if rx.search(code) and not (
                            fm.suppressions is not None and
                            fm.suppressions.allowed(idx + 1, rule)):
                        findings.append(
                            Finding(fm.relpath, idx + 1, rule, msg))
        return findings

    return check


# ---------------------------------------------------------------------------

def _file_model_for(model, relpath):
    cache = getattr(model, "_by_relpath", None)
    if cache is None or len(cache) != len(model.files):
        cache = {fm.relpath: fm for fm in model.files}
        model._by_relpath = cache
    return cache.get(relpath)


def _suppressions_for(model, relpath):
    fm = _file_model_for(model, relpath)
    return fm.suppressions if fm else None


ALL_CHECKS = {
    "digest-coverage": check_digest_coverage,
    "backend-purity": check_backend_purity,
    "phase-safety": check_phase_safety,
    "unordered-emit": check_unordered_emit,
    "suppression-reason": check_suppression_reasons,
}
ALL_CHECKS.update((rule, _make_text_check(rule)) for rule in _TEXT_RULES)


def run_checks(model, disabled=()):
    findings = []
    for name, fn in ALL_CHECKS.items():
        if name in disabled:
            continue
        findings.extend(fn(model))
    return sorted(set(findings))
