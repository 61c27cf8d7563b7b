"""The semantic IR the parser produces and every check consumes.

The model is deliberately token-oriented: the parser records declarations
precisely (classes, bases, members, aliases, function bodies) and hands the
checks token streams for the bodies. Type *resolution* (typedefs, `auto`,
member lookup) lives in helpers on this model, so every check shares one
definition of "what type is this expression".
"""

from dataclasses import dataclass, field


@dataclass
class Member:
    name: str
    type_text: str          # declared type, tokens joined with spaces
    line: int
    file: str
    is_mutable: bool = False
    is_static: bool = False


@dataclass
class MethodDecl:
    name: str
    line: int
    is_const: bool = False


@dataclass
class ClassInfo:
    name: str               # unqualified
    qual_name: str          # Namespace::Outer::Name (no leading ::)
    file: str
    line: int
    bases: list = field(default_factory=list)       # base qual/spelled names
    members: list = field(default_factory=list)     # [Member]
    aliases: dict = field(default_factory=dict)     # name -> target type text
    method_decls: list = field(default_factory=list)


@dataclass
class FunctionDef:
    name: str               # unqualified (last component)
    qual_name: str          # as spelled, namespaces resolved
    owner_class: str        # qual name of the owning class, or None
    file: str
    line: int
    return_type: str
    is_const: bool
    body: list              # [Token] between (and excluding) the outer braces
    param_text: str = ""


@dataclass
class FileModel:
    path: str
    relpath: str
    raw_lines: list
    suppressions: object = None        # suppress.Suppressions
    classes: dict = field(default_factory=dict)     # qual -> ClassInfo
    functions: list = field(default_factory=list)   # [FunctionDef]
    aliases: dict = field(default_factory=dict)     # file/ns-level aliases


class Model:
    """Whole-corpus view: every parsed file merged."""

    def __init__(self):
        self.files = []                 # [FileModel]
        self.classes = {}               # qual name -> ClassInfo
        self.by_name = {}               # unqualified name -> [ClassInfo]
        self.functions = []             # [FunctionDef]
        self.functions_by_owner = {}    # owner qual -> [FunctionDef]
        self.aliases = {}               # merged namespace-level aliases

    def add_file(self, fm):
        self.files.append(fm)
        for qual, ci in fm.classes.items():
            self.classes.setdefault(qual, ci)
            self.by_name.setdefault(ci.name, []).append(ci)
        for fn in fm.functions:
            self.functions.append(fn)
            if fn.owner_class:
                self.functions_by_owner.setdefault(
                    fn.owner_class, []).append(fn)
        for name, target in fm.aliases.items():
            self.aliases.setdefault(name, target)

    # ---- lookup helpers -------------------------------------------------

    def find_class(self, name, near=None):
        """Resolves a possibly-unqualified class name. `near` is the qual
        name of the scope doing the lookup (tried as a prefix first)."""
        if name in self.classes:
            return self.classes[name]
        if near:
            parts = near.split("::")
            for cut in range(len(parts), 0, -1):
                cand = "::".join(parts[:cut]) + "::" + name
                if cand in self.classes:
                    return self.classes[cand]
        tail = name.split("::")[-1]
        hits = self.by_name.get(tail, [])
        if len(hits) == 1:
            return hits[0]
        for ci in hits:
            if ci.qual_name.endswith("::" + name) or ci.qual_name == name:
                return ci
        return None

    def find_member(self, class_info, member_name):
        """Member lookup walking the inheritance chain."""
        seen = set()
        stack = [class_info]
        while stack:
            ci = stack.pop()
            if ci.qual_name in seen:
                continue
            seen.add(ci.qual_name)
            for m in ci.members:
                if m.name == member_name:
                    return m
            for b in ci.bases:
                bc = self.find_class(b, near=ci.qual_name)
                if bc:
                    stack.append(bc)
        return None

    def methods_of(self, class_qual):
        return self.functions_by_owner.get(class_qual, [])

    def find_method(self, class_info, method_name):
        """A method definition (with body) of the class or a base."""
        seen = set()
        stack = [class_info]
        while stack:
            ci = stack.pop()
            if ci.qual_name in seen:
                continue
            seen.add(ci.qual_name)
            for fn in self.methods_of(ci.qual_name):
                if fn.name == method_name:
                    return fn
            for b in ci.bases:
                bc = self.find_class(b, near=ci.qual_name)
                if bc:
                    stack.append(bc)
        return None

    def class_alias(self, class_info, name):
        """Class-level alias lookup, walking bases."""
        seen = set()
        stack = [class_info]
        while stack:
            ci = stack.pop()
            if ci.qual_name in seen:
                continue
            seen.add(ci.qual_name)
            if name in ci.aliases:
                return ci.aliases[name]
            for b in ci.bases:
                bc = self.find_class(b, near=ci.qual_name)
                if bc:
                    stack.append(bc)
        return None

    def derived_of(self, base_name):
        """Every class whose (transitive) base chain contains a class whose
        name or qual name ends with `base_name`."""
        out = []
        for ci in self.classes.values():
            if self._derives_from(ci, base_name, set()):
                out.append(ci)
        return out

    def _derives_from(self, ci, base_name, seen):
        if ci.qual_name in seen:
            return False
        seen.add(ci.qual_name)
        for b in ci.bases:
            tail = b.split("<")[0].strip()
            if tail == base_name or tail.endswith("::" + base_name):
                return True
            bc = self.find_class(tail, near=ci.qual_name)
            if bc and self._derives_from(bc, base_name, seen):
                return True
        return False

    # ---- type resolution ------------------------------------------------

    def resolve_type_text(self, type_text, class_info=None, depth=0):
        """Expands known aliases inside a type string until fixpoint."""
        if not type_text or depth > 6:
            return type_text or ""
        import re as _re
        out = []
        changed = False
        for word in _re.split(r"(\W+)", type_text):
            if not word or not word[0].isalpha() and word[0] != "_":
                out.append(word)
                continue
            target = None
            if class_info is not None:
                target = self.class_alias(class_info, word)
            if target is None:
                target = self.aliases.get(word)
            if target and word not in ("std",):
                out.append(target)
                changed = True
            else:
                out.append(word)
        text = "".join(out)
        if changed:
            return self.resolve_type_text(text, class_info, depth + 1)
        return text
