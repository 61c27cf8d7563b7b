"""C++ tokenizer for the declaration parser.

Produces (kind, text, line) tokens with comments stripped and string/char
literals collapsed to single tokens. Preprocessor directives become one `pp`
token each (continuation lines included) so the parser can skip them without
miscounting braces inside conditional blocks.

Kinds: `id`, `num`, `str`, `chr`, `punct`, `pp`.
"""

import re
from collections import namedtuple

Token = namedtuple("Token", ["kind", "text", "line"])

# Longest-match-first multi-character operators. `<` and `>` stay single so
# template-argument scanning can track angle depth itself (`>>` closes two).
_PUNCTS = [
    "<<=", ">>=", "<=>", "->*", "...",
    "::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
    "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "##",
]

_ID_START = re.compile(r"[A-Za-z_]")
_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NUM_RE = re.compile(r"(?:0[xXbB][0-9a-fA-F']+|[0-9][0-9a-fA-F.eEpPxX'+-]*)"
                     r"[uUlLfFzZ]*")


def tokenize(text):
    """Tokenizes C++ source text. Never raises on malformed input; unknown
    bytes become single-char punct tokens."""
    toks = []
    i = 0
    n = len(text)
    line = 1
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if c == "/" and i + 1 < n:
            if text[i + 1] == "/":
                j = text.find("\n", i)
                i = n if j < 0 else j
                continue
            if text[i + 1] == "*":
                j = text.find("*/", i + 2)
                if j < 0:
                    line += text.count("\n", i)
                    i = n
                else:
                    line += text.count("\n", i, j + 2)
                    i = j + 2
                continue
        # Preprocessor directive (only at logical line start; we approximate
        # by accepting any '#' — C++ has no other use of a bare '#' outside
        # macros, which this codebase does not define with stray hashes).
        if c == "#":
            start = i
            while i < n:
                j = text.find("\n", i)
                if j < 0:
                    i = n
                    break
                # Continuation line?
                k = j - 1
                while k >= start and text[k] in " \t\r":
                    k -= 1
                if k >= start and text[k] == "\\":
                    line += 1
                    i = j + 1
                    continue
                i = j  # leave the newline for the main loop
                break
            toks.append(Token("pp", text[start:i], line))
            continue
        # Raw strings: R"delim( ... )delim".
        if c in "RuUL" and i + 1 < n:
            m = re.match(r'(?:u8|[uUL])?R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                delim = ")" + m.group(1) + '"'
                j = text.find(delim, i + m.end())
                j = n if j < 0 else j + len(delim)
                toks.append(Token("str", text[i:j], line))
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"':
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == '"':
                    break
                j += 1
            toks.append(Token("str", text[i:j + 1], line))
            i = j + 1
            continue
        if c == "'":
            j = i + 1
            while j < n:
                if text[j] == "\\":
                    j += 2
                    continue
                if text[j] == "'":
                    break
                j += 1
            toks.append(Token("chr", text[i:j + 1], line))
            i = j + 1
            continue
        if _ID_START.match(c):
            m = _ID_RE.match(text, i)
            toks.append(Token("id", m.group(0), line))
            i = m.end()
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            m = _NUM_RE.match(text, i)
            if m:
                toks.append(Token("num", m.group(0), line))
                i = m.end()
                continue
        matched = False
        for p in _PUNCTS:
            if text.startswith(p, i):
                toks.append(Token("punct", p, line))
                i += len(p)
                matched = True
                break
        if not matched:
            toks.append(Token("punct", c, line))
            i += 1
    return toks


def match_brace(toks, i):
    """Given toks[i] == '{', returns the index of the matching '}'
    (or len(toks) - 1 when unbalanced)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.text == "{":
                depth += 1
            elif t.text == "}":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def match_paren(toks, i):
    """Given toks[i] == '(', returns the index of the matching ')'."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.text == "(":
                depth += 1
            elif t.text == ")":
                depth -= 1
                if depth == 0:
                    return i
        i += 1
    return n - 1


def skip_angles(toks, i):
    """Given toks[i] == '<', returns the index just past the matching '>'.
    Treats '>>' as two closers; gives up at ';' or '{' (not a template)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i]
        if t.kind == "punct":
            if t.text == "<":
                depth += 1
            elif t.text == ">":
                depth -= 1
                if depth == 0:
                    return i + 1
            elif t.text == ">>":
                depth -= 2
                if depth <= 0:
                    return i + 1
            elif t.text in (";", "{"):
                return i
        i += 1
    return n
