"""A declaration-level C++ parser with zero dependencies.

This is not a general C++ parser. It understands the subset the repo's
style guide produces — namespaces, classes/structs with bases and nested
types, data members (with default/brace initializers), `using`/`typedef`
aliases, in-class and out-of-line (possibly templated) function definitions
with constructor initializer lists — and records function bodies as token
streams for the checks to analyze. Anything it cannot classify it skips
conservatively, so a parse gap degrades into a missed declaration, never a
crash or a phantom finding.
"""

from .cpp_lexer import tokenize, match_brace, match_paren, skip_angles
from .cpp_model import (ClassInfo, FileModel, FunctionDef, Member, MethodDecl)
from .suppress import Suppressions

_SPECIFIERS = {
    "static", "mutable", "constexpr", "consteval", "constinit", "inline",
    "virtual", "explicit", "extern", "thread_local", "volatile", "register",
}
_NOT_A_CALL = {
    "if", "for", "while", "switch", "return", "sizeof", "alignof", "catch",
    "new", "delete", "throw", "case", "default", "do", "else", "noexcept",
    "static_cast", "dynamic_cast", "reinterpret_cast", "const_cast",
    "decltype", "assert", "alignas",
}


class _Scope:
    def __init__(self, kind, name, close_at, class_info=None):
        self.kind = kind          # 'ns' | 'class' | 'opaque'
        self.name = name
        self.close_at = close_at  # token index of the matching '}'
        self.class_info = class_info


class Parser:
    def __init__(self, path, relpath, text):
        self.path = path
        self.relpath = relpath
        self.toks = tokenize(text)
        raw_lines = text.splitlines()
        self.fm = FileModel(path=path, relpath=relpath, raw_lines=raw_lines,
                            suppressions=Suppressions(raw_lines))
        self.scopes = []

    # ---- scope helpers --------------------------------------------------

    def _ns_prefix(self):
        parts = [s.name for s in self.scopes if s.kind == "ns" and s.name]
        return "::".join(parts)

    def _qual(self, name):
        parts = [s.name for s in self.scopes
                 if s.kind in ("ns", "class") and s.name]
        parts.append(name)
        return "::".join(parts)

    def _current_class(self):
        for s in reversed(self.scopes):
            if s.kind == "class":
                return s.class_info
            if s.kind == "opaque":
                return None
        return None

    # ---- main loop ------------------------------------------------------

    def parse(self):
        toks = self.toks
        i = 0
        n = len(toks)
        pending_template = False
        while i < n:
            t = toks[i]
            if self.scopes and i >= self.scopes[-1].close_at:
                # Close every scope ending here (nested scopes may share the
                # index only if unbalanced; handle one at a time).
                self.scopes.pop()
                i += 1
                if i < n and toks[i].kind == "punct" and toks[i].text == ";":
                    i += 1
                continue
            if t.kind == "pp":
                i += 1
                continue
            if t.kind == "punct":
                if t.text == ";":
                    i += 1
                    continue
                if t.text == "{":  # stray block at declaration level
                    end = match_brace(toks, i)
                    self.scopes.append(_Scope("opaque", "", end))
                    i += 1
                    continue
                if t.text == "}":
                    # Unmatched close (shouldn't happen): skip.
                    i += 1
                    continue
                i += 1
                continue
            word = t.text
            if word == "template" and i + 1 < n and toks[i + 1].text == "<":
                i = skip_angles(toks, i + 1)
                pending_template = True
                continue
            if word == "namespace":
                i = self._parse_namespace(i)
                continue
            if word in ("class", "struct", "union"):
                ni = self._parse_class(i)
                if ni is not None:
                    i = ni
                    pending_template = False
                    continue
                # fall through: elaborated type in a declaration
            if word == "enum":
                i = self._skip_enum(i)
                continue
            if word in ("public", "private", "protected") and \
                    i + 1 < n and toks[i + 1].text == ":":
                i += 2
                continue
            if word == "using":
                i = self._parse_using(i)
                continue
            if word == "typedef":
                i = self._parse_typedef(i)
                continue
            if word in ("friend", "static_assert"):
                i = self._skip_statement(i)
                continue
            # A declaration: member, variable, function decl or definition.
            i = self._parse_declaration(i)
            pending_template = False
        return self.fm

    # ---- constructs -----------------------------------------------------

    def _parse_namespace(self, i):
        toks = self.toks
        j = i + 1
        name = ""
        while j < len(toks) and toks[j].kind == "id":
            name = name + ("::" if name else "") + toks[j].text
            j += 1
            if j < len(toks) and toks[j].text == "::":
                j += 1
                continue
            break
        if j < len(toks) and toks[j].text == "{":
            end = match_brace(toks, j)
            # Inline nested names (a::b) open one scope with the full name.
            self.scopes.append(_Scope("ns", name, end))
            return j + 1
        return self._skip_statement(i)  # namespace alias or using

    def _parse_class(self, i):
        """Returns the index after the class header's '{' (scope pushed),
        after a forward declaration's ';', or None when this isn't actually
        a class definition/declaration (elaborated type specifier)."""
        toks = self.toks
        j = i + 1
        # Skip attributes and macros conventionally placed before the name.
        while j < len(toks) and toks[j].kind == "pp":
            j += 1
        if j >= len(toks):
            return self._skip_statement(i)
        if toks[j].kind != "id":
            # Anonymous struct/union: treat the body as opaque.
            if toks[j].text == "{":
                end = match_brace(toks, j)
                self.scopes.append(_Scope("opaque", "", end))
                return j + 1
            return self._skip_statement(i)
        name = toks[j].text
        j += 1
        if j < len(toks) and toks[j].text == "<":  # explicit specialization
            j = skip_angles(toks, j)
        if j < len(toks) and toks[j].kind == "id" and toks[j].text == "final":
            j += 1
        if j >= len(toks):
            return len(toks)
        if toks[j].text == ";":
            return j + 1  # forward declaration
        bases = []
        if toks[j].text == ":":
            j += 1
            cur = []
            depth = 0
            while j < len(toks):
                tt = toks[j]
                if tt.text == "<":
                    depth += 1
                elif tt.text in (">", ">>"):
                    depth -= 2 if tt.text == ">>" else 1
                elif depth <= 0 and tt.text == "{":
                    break
                elif depth <= 0 and tt.text == ",":
                    if cur:
                        bases.append("".join(cur))
                    cur = []
                    j += 1
                    continue
                if tt.kind == "id" and tt.text in ("public", "protected",
                                                   "private", "virtual"):
                    j += 1
                    continue
                if depth <= 0 and tt.kind in ("id",) or tt.text == "::":
                    cur.append(tt.text)
                j += 1
            if cur:
                bases.append("".join(cur))
        if j >= len(toks) or toks[j].text != "{":
            # `struct Foo x;` style declaration — not a definition.
            return None
        end = match_brace(toks, j)
        ci = ClassInfo(name=name, qual_name=self._qual(name),
                       file=self.relpath, line=toks[i].line, bases=bases)
        self.fm.classes[ci.qual_name] = ci
        self.scopes.append(_Scope("class", name, end, class_info=ci))
        return j + 1

    def _skip_enum(self, i):
        toks = self.toks
        j = i + 1
        while j < len(toks) and toks[j].text not in ("{", ";"):
            j += 1
        if j < len(toks) and toks[j].text == "{":
            j = match_brace(toks, j) + 1
        while j < len(toks) and toks[j].text != ";":
            j += 1
        return j + 1

    def _parse_using(self, i):
        toks = self.toks
        if i + 1 < len(toks) and toks[i + 1].text == "namespace":
            return self._skip_statement(i)
        if i + 2 < len(toks) and toks[i + 1].kind == "id" and \
                toks[i + 2].text == "=":
            name = toks[i + 1].text
            j = i + 3
            target = []
            while j < len(toks) and toks[j].text != ";":
                target.append(toks[j].text)
                j += 1
            tgt = " ".join(target)
            cls = self._current_class()
            if cls is not None:
                cls.aliases[name] = tgt
            else:
                self.fm.aliases[name] = tgt
            return j + 1
        return self._skip_statement(i)  # using Base::foo;

    def _parse_typedef(self, i):
        toks = self.toks
        j = i + 1
        parts = []
        while j < len(toks) and toks[j].text != ";":
            parts.append(toks[j])
            j += 1
        if parts and parts[-1].kind == "id":
            name = parts[-1].text
            tgt = " ".join(p.text for p in parts[:-1])
            cls = self._current_class()
            if cls is not None:
                cls.aliases[name] = tgt
            else:
                self.fm.aliases[name] = tgt
        return j + 1

    def _skip_statement(self, i):
        toks = self.toks
        depth = 0
        while i < len(toks):
            t = toks[i]
            if t.kind == "punct":
                if t.text in ("(", "[", "{"):
                    depth += 1
                elif t.text in (")", "]", "}"):
                    depth -= 1
                elif t.text == ";" and depth <= 0:
                    return i + 1
            i += 1
        return i

    # ---- the workhorse --------------------------------------------------

    def _parse_declaration(self, i):
        """Parses one declaration starting at token i in a declaration
        context. Returns the index just past it."""
        toks = self.toks
        n = len(toks)
        j = i
        paren = 0
        angle = 0
        head = []           # tokens up to the stopper
        stop = None
        first_paren = None  # index (into head) of the first top-level '('
        while j < n:
            t = toks[j]
            if t.kind == "pp":
                j += 1
                continue
            if t.kind == "punct":
                if t.text == "(":
                    if paren == 0 and angle <= 0 and first_paren is None:
                        first_paren = len(head)
                    paren += 1
                elif t.text == ")":
                    paren -= 1
                elif t.text == "[":
                    paren += 1
                elif t.text == "]":
                    paren -= 1
                elif t.text == "<":
                    if paren == 0:
                        angle += 1
                elif t.text == ">":
                    if paren == 0 and angle > 0:
                        angle -= 1
                elif t.text == ">>":
                    if paren == 0 and angle > 0:
                        angle = max(0, angle - 2)
                elif paren == 0 and angle <= 0 and t.text in (";", "{", "="):
                    stop = t.text
                    break
            head.append(t)
            j += 1
        if stop is None:
            return n
        if stop == ";":
            self._record_head(head, is_def=False, had_init=False)
            return j + 1
        if stop == "=":
            # Function decl with `= 0 / default / delete`, or a member with a
            # default initializer.
            self._record_head(head, is_def=False, had_init=True)
            return self._skip_statement(j)
        # stop == '{'
        if first_paren is not None and self._looks_like_function(head,
                                                                first_paren):
            return self._record_function(head, first_paren, j)
        # Brace-initialized member: `T name{...};`
        self._record_head(head, is_def=False, had_init=True)
        end = match_brace(toks, j)
        k = end + 1
        if k < n and toks[k].text == ";":
            k += 1
        return k

    def _looks_like_function(self, head, first_paren):
        """True when head = `ret name ( params ) [trailer]` i.e. the token
        before '(' is a plausible function name."""
        k = first_paren - 1
        if k < 0:
            return False
        t = head[k]
        if t.kind != "id" and t.text != "~" and not (
                t.kind == "punct" and head[k - 1].text == "operator"
                if k >= 1 else False):
            # operator() / operator[] have punct directly before '('
            pass
        # Find whether an id / operator form directly precedes '('.
        if t.kind == "id":
            return True
        # operator+, operator==, operator[] ...
        k2 = k
        while k2 >= 0 and head[k2].kind == "punct":
            k2 -= 1
        return k2 >= 0 and head[k2].kind == "id" and \
            head[k2].text == "operator"

    def _record_function(self, head, first_paren, brace_idx):
        """Records a function definition whose body opens at brace_idx.
        Handles constructor initializer lists: brace_idx may actually point
        at an init-list brace; re-locates the true body brace."""
        toks = self.toks
        # Re-scan from the '(' to find the parameter list end, then walk the
        # trailer (const/noexcept/override/-> / ctor-inits) to the true body.
        # head was collected with pp tokens dropped, so map back via token
        # identity: find the absolute index of the first '(' at/after the
        # head's start line. Simpler: scan absolute tokens from the start.
        # We know brace_idx is the first top-level '{' after the decl start;
        # for a ctor-init like `: a_(x), b_{y} {`, the first '{' may belong
        # to an initializer. Detect: a ':' at paren-depth 0 after the param
        # ')' and before brace_idx, with the brace directly following an
        # identifier (aggregate init) rather than a ')' or id-list end.
        name_parts = []
        k = first_paren - 1
        # Gather trailing `A :: B` / `~B` / `operator op` name sequence.
        while k >= 0:
            t = head[k]
            if t.kind == "id" or t.text in ("::", "~"):
                name_parts.append(t.text)
                k -= 1
                # only keep going when the previous token continues the
                # qualified-id chain
                if k >= 0 and (head[k].text == "::" or head[k].text == "~"
                               or (head[k].kind == "id" and
                                   name_parts[-1] == "::")):
                    continue
                if k >= 0 and head[k].kind == "id" and \
                        head[k].text == "operator":
                    continue
                break
            elif t.kind == "punct" and k >= 1 and any(
                    h.kind == "id" and h.text == "operator"
                    for h in head[max(0, k - 2):k]):
                name_parts.append(t.text)
                k -= 1
                continue
            else:
                break
        name_parts.reverse()
        spelled = "".join(name_parts)
        if not spelled:
            # Could not extract a name; treat the brace as opaque.
            return match_brace(toks, brace_idx) + 1
        ret_type = " ".join(t.text for t in head[:k + 1]
                            if t.text not in _SPECIFIERS)
        # Trailer analysis between ')' and the body '{' uses absolute tokens.
        # Find the absolute index of the matching ')' for the params: walk
        # from brace_idx backwards is fragile; instead walk forward from the
        # declaration's absolute start. The absolute position of the first
        # top-level '(' is recoverable: it is the token at the same source
        # line/kind — but head tokens ARE absolute tokens (same objects), so
        # use identity.
        abs_paren = None
        target = head[first_paren]
        # head tokens are the same Token tuples from self.toks; find by
        # scanning near the declaration: tuples are equal by value, so match
        # on (kind, text, line) from the decl's start token.
        # Walk from the token holding the decl start:
        start_line = head[0].line
        for idx in range(max(0, brace_idx - len(head) * 2 - 8), brace_idx):
            t = toks[idx]
            if t is target or (t == target and t.line >= start_line):
                abs_paren = idx
                break
        if abs_paren is None:
            return match_brace(toks, brace_idx) + 1
        params_end = match_paren(toks, abs_paren)
        param_text = " ".join(t.text for t in toks[abs_paren + 1:params_end])
        is_const = False
        body_open = None
        k2 = params_end + 1
        n = len(toks)
        while k2 < n:
            t = toks[k2]
            if t.kind == "pp":
                k2 += 1
                continue
            if t.kind == "id":
                if t.text == "const":
                    is_const = True
                    k2 += 1
                    continue
                if t.text in ("noexcept", "override", "final", "try"):
                    k2 += 1
                    continue
                # part of a trailing return type — skip token
                k2 += 1
                continue
            if t.text == "(":  # noexcept(...)
                k2 = match_paren(toks, k2) + 1
                continue
            if t.text == "->":
                k2 += 1
                continue
            if t.text in ("&", "&&", "*", "::", "<"):
                if t.text == "<":
                    k2 = skip_angles(toks, k2)
                else:
                    k2 += 1
                continue
            if t.text == ":":
                # Constructor initializer list: id ( ... ) or id { ... },
                # comma-separated, then the body '{'.
                k2 += 1
                while k2 < n:
                    t2 = toks[k2]
                    if t2.kind in ("id",) or t2.text in ("::", "<", ">",
                                                         ">>", ","):
                        if t2.text == "<":
                            k2 = skip_angles(toks, k2)
                        else:
                            k2 += 1
                        continue
                    if t2.text == "(":
                        k2 = match_paren(toks, k2) + 1
                        if k2 < n and toks[k2].text == ",":
                            k2 += 1
                        continue
                    if t2.text == "{":
                        # Either an aggregate initializer or the body. An
                        # initializer brace is followed (after matching) by
                        # ',' or '{'-body; the body brace is the one whose
                        # preceding token is ')' or '}' — i.e. when we get
                        # here right after closing an initializer, '{' IS
                        # the body.
                        prev = toks[k2 - 1]
                        if prev.text in (")", "}"):
                            body_open = k2
                            break
                        close = match_brace(toks, k2)
                        k2 = close + 1
                        if k2 < n and toks[k2].text == ",":
                            k2 += 1
                        continue
                    break
                if body_open is not None:
                    break
                continue
            if t.text == "{":
                body_open = k2
                break
            if t.text == ";":
                return k2 + 1  # declaration after all (e.g. trailing ret)
            k2 += 1
        if body_open is None:
            return match_brace(toks, brace_idx) + 1
        body_close = match_brace(toks, body_open)
        # Resolve ownership: qualified `A::B::name` binds to class A::B;
        # unqualified binds to the enclosing class scope if any.
        owner = None
        fname = spelled
        if "::" in spelled:
            prefix, fname = spelled.rsplit("::", 1)
            ns = self._ns_prefix()
            owner = (ns + "::" + prefix) if ns else prefix
        else:
            cls = self._current_class()
            if cls is not None:
                owner = cls.qual_name
                cls.method_decls.append(
                    MethodDecl(name=fname, line=head[0].line,
                               is_const=is_const))
        qual = (owner + "::" + fname) if owner else (
            (self._ns_prefix() + "::" + fname) if self._ns_prefix() else fname)
        self.fm.functions.append(FunctionDef(
            name=fname, qual_name=qual, owner_class=owner,
            file=self.relpath, line=head[0].line, return_type=ret_type,
            is_const=is_const, body=toks[body_open + 1:body_close],
            param_text=param_text))
        return body_close + 1

    def _record_head(self, head, is_def, had_init):
        """Records a ';'-terminated declaration head: method declaration or
        data member / variable."""
        del is_def
        if not head:
            return
        # Top-level '(' (angle-depth 0) => function declaration.
        paren = 0
        angle = 0
        first_paren = None
        for idx, t in enumerate(head):
            if t.kind != "punct":
                continue
            if t.text == "<" and paren == 0:
                angle += 1
            elif t.text == ">" and paren == 0 and angle > 0:
                angle -= 1
            elif t.text == ">>" and paren == 0 and angle > 0:
                angle = max(0, angle - 2)
            elif t.text == "(":
                if paren == 0 and angle == 0 and first_paren is None:
                    first_paren = idx
                paren += 1
            elif t.text == ")":
                paren -= 1
        cls = self._current_class()
        if first_paren is not None:
            k = first_paren - 1
            if k >= 0 and head[k].kind == "id" and cls is not None:
                is_const = any(t.text == "const"
                               for t in head[first_paren:])
                cls.method_decls.append(MethodDecl(
                    name=head[k].text, line=head[0].line, is_const=is_const))
            return
        # Data member / variable: declarator is the last identifier
        # (ignoring trailing array brackets).
        idx = len(head) - 1
        while idx >= 0 and head[idx].kind == "punct" and \
                head[idx].text in ("]", "[",) or (
                    idx >= 0 and head[idx].kind == "num"):
            idx -= 1
        while idx >= 0 and head[idx].kind != "id":
            idx -= 1
        if idx <= 0:
            return  # no type before the name: not a data member
        name = head[idx].text
        if name in _SPECIFIERS or head[idx - 1].text == "::":
            return
        type_toks = [t.text for t in head[:idx]]
        if not type_toks:
            return
        is_static = "static" in type_toks
        is_mutable = "mutable" in type_toks
        type_text = " ".join(t for t in type_toks if t not in _SPECIFIERS)
        if not type_text.strip():
            return
        if cls is not None:
            cls.members.append(Member(
                name=name, type_text=type_text, line=head[idx].line,
                file=self.relpath, is_mutable=is_mutable,
                is_static=is_static))
        del had_init


def parse_file(path, relpath):
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return Parser(path, relpath, text).parse()
