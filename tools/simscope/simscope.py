#!/usr/bin/env python3
"""simscope — whole-program annotation-coverage analyzer for simrace.

simrace (DESIGN.md §7) only sees accesses that are annotated with
DPDPU_SIM_ACCESS or wrapped in sim::Racy; a race on an *unannotated*
shared field is invisible to the detector and never branched by simex's
DPOR. simscope closes that blind spot statically:

  1. It identifies every *callback context* — a lambda registered with
     Simulator::Schedule/ScheduleAt/Post, a PeriodicTask body, a MiniTCP
     or RPC completion handler, or any other lambda handed to a call
     that defers it — and treats each registration site as a scheduling
     provenance root.
  2. It walks name-resolved call-graph edges from each root and
     attributes every member-field (and namespace-scope global) write in
     reachable code to the roots that can reach it.
  3. A field written from >= 2 distinct roots is shared mutable state.
     simscope diffs that set against the declared annotation map
     (DPDPU_SIM_ACCESS / RaceChecker::RecordAccess sites and sim::Racy
     fields, with region coverage propagating down the call chain) and
     reports each uncovered field with its write sites and provenance
     chains (rule S1).
  4. With --xcheck it also diffs the *static* annotation map against the
     set of object names simrace *dynamically* observed (dumped via
     DPDPU_SIM_RACE_COVERAGE, see src/sim/simrace.cc): an annotation
     that is statically reachable from a callback context but never
     observed at runtime is dead weight or an untested path (rule S2).

The frontend is a dependency-free fuzzy C++ parser built on the shared
lintcommon comment/string stripper. It over-approximates roots (any
deferred lambda is a root) and under-approximates coverage only where
documented below.

Suppressions follow simlint policy exactly (shared via lintcommon):
inline `// simscope:allow(S1): reason` on the field declaration line
(or the line above), and file-level allowlist entries
`<path> S1:Class::field reason` (or bare `S1` for a whole file). Both
require a reason, and stale entries — an inline allow that suppresses
nothing, an allowlist entry whose file left the tree or whose finding
no longer fires — are themselves violations.
"""

import argparse
import glob
import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
import lintcommon  # noqa: E402

REPO_ROOT = os.path.dirname(os.path.dirname(
    os.path.dirname(os.path.abspath(__file__))))
DEFAULT_ROOTS = ("src",)
DEFAULT_ALLOWLIST = os.path.join("tools", "simscope", "allowlist.txt")

RULES = {
    "S1": "shared-mutable field written from >=2 callback contexts "
          "without a simrace annotation on any path",
    "S2": "annotation statically reachable from a callback context but "
          "never dynamically observed (--xcheck)",
}

# Callees whose lambda argument runs synchronously inside the enclosing
# event — std:: algorithms and friends. A lambda passed to anything else
# is assumed deferred (callback registration): in a discrete-event
# codebase that over-approximation is the sound direction, because extra
# roots can only *add* fields to the shared set.
SYNC_CALLEES = frozenset("""
    sort stable_sort nth_element find_if find_if_not remove_if count_if
    any_of all_of none_of for_each transform accumulate reduce
    lower_bound upper_bound equal_range binary_search min_element
    max_element minmax_element partition stable_partition
    partition_point generate generate_n iota visit apply erase_if
    unique copy_if replace_if count find remove assert static_assert
""".split())

# Chain tails that read through to the element rather than naming a
# distinct member: `inflight_rpcs_.at(i)++` writes inflight_rpcs_.
ACCESSOR_TAILS = frozenset(["at", "front", "back", "top", "data"])

MUTATING_METHODS = frozenset("""
    push_back emplace_back emplace push pop insert erase clear pop_back
    pop_front resize assign reset swap Add Record Observe append
""".split())

CONTROL_KEYWORDS = frozenset("""
    if for while switch catch return sizeof alignof decltype new delete
    do else throw case default goto
""".split())

Violation = lintcommon.Violation


# ---------------------------------------------------------------------------
# Facts IR — the frontend lowers the tree to these records, the analysis
# below consumes only them.
# ---------------------------------------------------------------------------

class Field:
    """A member field declaration (or namespace-scope global)."""

    def __init__(self, cls, name, path, line, racy=False, type_text=""):
        self.cls = cls          # class simple name, or "<global>"
        self.name = name
        self.path = path        # repo-relative
        self.line = line
        self.racy = racy        # declared as sim::Racy<...>
        self.type_text = type_text  # raw declared type, for pointee lookup

    @property
    def key(self):
        return (self.cls, self.name)

    def __repr__(self):
        return f"{self.cls}::{self.name}@{self.path}:{self.line}"


class Region:
    """A unit of code ownership: a function body or a root-lambda body.

    Non-root lambdas (std::sort comparators etc.) do not get regions —
    their code belongs to the enclosing region, which is exactly the
    context it executes in.
    """

    def __init__(self, rid, kind, name, path, line, span, cls=None,
                 root=None):
        self.id = rid
        self.kind = kind        # "function" | "lambda"
        self.name = name        # qualified-ish name or "<lambda>"
        self.simple = name.rsplit("::", 1)[-1]
        self.path = path
        self.line = line
        self.span = span        # (start_offset, end_offset) in file
        self.cls = cls          # enclosing class simple name or None
        self.root = root        # (path, line, callee) when a context root
        self.calls = []         # callee simple names
        self.writes = []        # Write
        self.annotations = []   # Annotation
        self.var_types = {}     # local/param name -> class simple name

    def __repr__(self):
        return f"{self.kind} {self.name}@{self.path}:{self.line}"


class Write:
    def __init__(self, field_key, path, line, snippet):
        self.field_key = field_key  # (cls, name)
        self.path = path
        self.line = line
        self.snippet = snippet


class Annotation:
    def __init__(self, object_name, path, line):
        self.object_name = object_name
        self.path = path
        self.line = line


class Facts:
    """Whole-program facts, merged across files/TUs."""

    def __init__(self):
        self.fields = {}        # (cls, name) -> Field (first decl wins)
        self.regions = []       # Region
        self.racy_names = set() # object names from sim::Racy field inits
        self._class_names = None

    def add_field(self, field):
        self.fields.setdefault(field.key, field)
        if field.racy:
            self.fields[field.key].racy = True
        self._class_names = None

    def class_of_type(self, type_text):
        """Known class named in a declared type, or None (`Fleet*` ->
        Fleet, `std::shared_ptr<CatchUpJob>` -> CatchUpJob)."""
        if self._class_names is None:
            self._class_names = {cls for cls, _ in self.fields}
        for tok in re.findall(r"[A-Za-z_]\w*", type_text):
            if tok in self._class_names:
                return tok
        return None

    def functions_by_simple_name(self):
        index = {}
        for r in self.regions:
            if r.kind == "function":
                index.setdefault(r.simple, []).append(r)
        return index


# ---------------------------------------------------------------------------
# Builtin frontend: a fuzzy, dependency-free C++ parser. Works on the
# comment/string-stripped text (lintcommon) so regexes never match
# prose; line structure is preserved so offsets map back to real lines.
# ---------------------------------------------------------------------------

CLASS_RE = re.compile(r"\b(class|struct)\s+(?:\[\[[^\]]*\]\]\s*)?"
                      r"(?:alignas\s*\([^)]*\)\s*)?"
                      r"([A-Za-z_]\w*(?:::[A-Za-z_]\w*)*)\s*"
                      r"(?:final\s*)?(?::[^{;]*)?\{")
FUNC_NAME_RE = re.compile(r"([A-Za-z_]\w*(?:\s*::\s*~?[A-Za-z_]\w*)*)\s*\(")
LAMBDA_RE = re.compile(r"\[")
CHAIN = r"(?:[A-Za-z_]\w*(?:\s*(?:->|\.)\s*))*[A-Za-z_]\w*"
CALLARGS = r"(?:\((?:[^()]|\([^()]*\))*\))?"
WRITE_RES = [
    # ++x / --x (possibly through .at(...))
    re.compile(rf"(\+\+|--)\s*({CHAIN}){CALLARGS}"),
    # x++ / x--
    re.compile(rf"({CHAIN}){CALLARGS}\s*(\+\+|--)"),
    # x = / x += / ... (not ==, <=, >=, !=)
    re.compile(rf"({CHAIN}){CALLARGS}(?:\[[^\]]*\])?\s*"
               r"(=(?![=])|\+=|-=|\*=|/=|%=|\|=|&=|\^=|<<=|>>=)"),
    # x.push_back(...) and other mutating methods
    re.compile(rf"({CHAIN})\s*\.\s*({'|'.join(sorted(MUTATING_METHODS))})"
               r"\s*\("),
]
ANNOT_RE = re.compile(
    r"(?:DPDPU_SIM_ACCESS|RecordAccess)\s*\(\s*[^,]*,\s*\"([^\"]+)\"")
RACY_DECL_RE = re.compile(
    r"Racy\s*<[^;>]*>\s*([A-Za-z_]\w*)\s*[{(]\s*\"([^\"]+)\"")
CALL_RE = re.compile(r"(?<![\w.>])([A-Za-z_]\w*)\s*\(")
NOT_FIELD_STMT = re.compile(
    r"^\s*(using|typedef|friend|namespace|template|public|private|"
    r"protected|static_assert|enum|return|#)")


def _line_of(text, offset, line_starts):
    import bisect
    return bisect.bisect_right(line_starts, offset)


def _line_starts(text):
    starts = [0]
    for i, c in enumerate(text):
        if c == "\n":
            starts.append(i + 1)
    return starts[:-1] if text.endswith("\n") else starts


def _match_paren(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "(":
            depth += 1
        elif text[i] == ")":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


def _match_bracket(text, open_idx):
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == "[":
            depth += 1
        elif text[i] == "]":
            depth -= 1
            if depth == 0:
                return i + 1
    return len(text)


class BuiltinFrontend:
    def __init__(self, repo_root):
        self.repo_root = repo_root
        self._next_region = 0

    def parse_tree(self, roots, facts):
        # Two phases: field/global declarations for the whole tree first
        # (writes in foo.cc routinely target fields declared in bar.h),
        # then regions/writes/calls/annotations.
        files = []
        for full in lintcommon.collect_files(self.repo_root, roots):
            rel = os.path.relpath(full, self.repo_root)
            with open(full) as f:
                raw = f.read()
            files.append((rel, raw))
        prepared = [(rel, raw, self.parse_decls(rel, raw, facts))
                    for rel, raw in files]
        for rel, raw, structure in prepared:
            self.parse_uses(rel, raw, structure, facts)

    # -- per-file ----------------------------------------------------------

    def parse_decls(self, rel, raw, facts):
        """Phase 1: classes, member fields, globals. Returns the file
        structure (stripped text, class/function/lambda spans) so phase
        2 doesn't re-parse."""
        stripped = lintcommon.strip_comments_and_strings(raw)
        line_starts = _line_starts(stripped)

        def line_of(off):
            return _line_of(stripped, off, line_starts)

        classes = self._find_classes(stripped, line_of)        # [(name, span)]
        functions = self._find_functions(stripped, classes, line_of)
        lambdas = self._find_lambdas(stripped, line_of)

        # Member fields: statements at class-body level, outside any
        # function body and outside nested class bodies.
        func_spans = [f[3] for f in functions]
        self._find_fields(stripped, raw, rel, classes, func_spans,
                          line_of, facts)
        self._find_globals(stripped, rel, classes, func_spans,
                           line_of, facts)
        return (stripped, line_starts, classes, functions, lambdas)

    def parse_uses(self, rel, raw, structure, facts):
        """Phase 2: regions, writes, calls, annotations."""
        stripped, line_starts, classes, functions, lambdas = structure

        def line_of(off):
            return _line_of(stripped, off, line_starts)

        def innermost_class(off):
            best = None
            for name, (s, e) in classes:
                if s <= off < e and (best is None or s > best[1][0]):
                    best = (name, (s, e))
            return best[0] if best else None

        # Regions: every function; every *root* lambda.
        regions = []
        for name, cls, line, span in functions:
            regions.append(Region(self._rid(), "function", name, rel,
                                  line, span, cls=cls))
        for line, span, callee, is_root in lambdas:
            if not is_root:
                continue
            cls = innermost_class(span[0])
            regions.append(Region(
                self._rid(), "lambda", f"<lambda {rel}:{line}>", rel,
                line, span, cls=cls, root=(rel, line, callee)))

        # Innermost-region attribution. Bodies nest properly, so the
        # innermost region containing an offset is the one with the
        # largest start <= off whose end covers it: bisect + short
        # backward walk instead of a linear scan per lookup.
        import bisect
        regions_sorted = sorted(regions, key=lambda r: r.span[0])
        starts = [r.span[0] for r in regions_sorted]

        def innermost_region(off):
            i = bisect.bisect_right(starts, off) - 1
            while i >= 0:
                r = regions_sorted[i]
                if r.span[0] <= off < r.span[1]:
                    return r
                i -= 1
            return None

        # Local type inference: function params + locals first, then
        # lambdas inherit from the innermost enclosing region (captures).
        class_names = {name for name, _ in classes} | set(
            k[0] for k in facts.fields)
        for r in regions:
            self._infer_var_types(stripped, r, class_names, facts)
        for r in sorted(regions, key=lambda r: r.span[0]):
            if r.kind != "lambda":
                continue
            outer = None
            for o in regions_sorted:
                s, e = o.span
                if s < r.span[0] and r.span[1] <= e and o is not r:
                    if outer is None or s > outer.span[0]:
                        outer = o
            if outer is not None:
                inherited = dict(outer.var_types)
                inherited.update(r.var_types)
                r.var_types = inherited
                if r.cls is None:
                    r.cls = outer.cls

        self._find_writes(stripped, rel, line_of, innermost_region, facts)
        self._find_calls(stripped, rel, line_of, innermost_region, facts)
        self._find_annotations(raw, rel, innermost_region, facts,
                               line_starts)

        facts.regions.extend(regions)

    def _rid(self):
        self._next_region += 1
        return self._next_region

    # -- structure ---------------------------------------------------------

    def _find_classes(self, stripped, line_of):
        classes = []
        for m in CLASS_RE.finditer(stripped):
            before = stripped[max(0, m.start() - 16):m.start()]
            if re.search(r"\benum\s*$", before):
                continue
            open_idx = stripped.index("{", m.end() - 1)
            end = lintcommon.match_brace(stripped, open_idx)
            # Out-of-line nested definitions (`struct Outer::Inner {`)
            # belong to the innermost name; fields resolved through a
            # pointer to Inner must not land on Outer.
            classes.append((m.group(2).split("::")[-1], (open_idx, end)))
        return classes

    def _find_functions(self, stripped, classes, line_of):
        """[(qualified_name, enclosing_class, line, (body_start, body_end))]"""
        functions = []
        for m in FUNC_NAME_RE.finditer(stripped):
            name = re.sub(r"\s+", "", m.group(1))
            simple = name.rsplit("::", 1)[-1].lstrip("~")
            if simple in CONTROL_KEYWORDS or not simple:
                continue
            # Method calls (x.f(...), x->f(...)) are not definitions.
            prev = stripped[:m.start()].rstrip()
            if prev.endswith((".", "->", "&", "=", "(", ",", "!", "<",
                              ">", "+", "-", "*", "/", "%", "|", "^",
                              "::", "return")):
                continue
            close = _match_paren(stripped, stripped.index("(", m.start()))
            body = self._body_after_signature(stripped, close)
            if body is None:
                continue
            open_idx, end = body
            cls = None
            for cname, (s, e) in classes:
                if s <= m.start() < e and (cls is None):
                    cls = cname
                elif s <= m.start() < e:
                    cls = cname  # innermost wins (later = inner)
            if "::" in name:
                cls = name.rsplit("::", 2)[-2]
            qual = name if "::" in name else (
                f"{cls}::{name}" if cls else name)
            functions.append((qual, cls, line_of(m.start()),
                              (open_idx, end)))
        return functions

    def _body_after_signature(self, stripped, pos):
        """After the closing ')' of a signature: skip qualifiers and a
        constructor init-list; return the body span or None."""
        i = pos
        n = len(stripped)
        while i < n:
            while i < n and stripped[i] in " \t\n":
                i += 1
            if i >= n:
                return None
            c = stripped[i]
            if c == "{":
                return (i, lintcommon.match_brace(stripped, i))
            if c == ";":
                return None
            m = re.match(r"(const|noexcept|override|final|mutable|&&|&)",
                         stripped[i:])
            if m:
                i += m.end()
                continue
            if stripped.startswith("->", i):  # trailing return type
                m2 = re.match(r"->\s*[\w:<>,\s*&]+", stripped[i:])
                if not m2:
                    return None
                i += m2.end()
                continue
            if c == ":":  # constructor init list
                i += 1
                while i < n:
                    while i < n and stripped[i] in " \t\n,":
                        i += 1
                    m3 = re.match(r"[A-Za-z_][\w:<>]*", stripped[i:])
                    if not m3:
                        break
                    i += m3.end()
                    while i < n and stripped[i] in " \t\n":
                        i += 1
                    if i < n and stripped[i] == "(":
                        i = _match_paren(stripped, i)
                    elif i < n and stripped[i] == "{":
                        i = lintcommon.match_brace(stripped, i)
                    else:
                        return None
                    while i < n and stripped[i] in " \t\n":
                        i += 1
                    if i < n and stripped[i] == ",":
                        continue
                    break
                while i < n and stripped[i] in " \t\n":
                    i += 1
                if i < n and stripped[i] == "{":
                    return (i, lintcommon.match_brace(stripped, i))
                return None
            return None
        return None

    def _find_lambdas(self, stripped, line_of):
        """[(line, body_span, root_callee_or_None, is_root)]"""
        out = []
        for m in LAMBDA_RE.finditer(stripped):
            i = m.start()
            prev = stripped[:i].rstrip()
            if prev and prev[-1] not in "({,=;&|!<>?:+-*%" and not \
                    prev.endswith("return"):
                continue  # subscript or attribute, not a lambda intro
            if stripped.startswith("[[", i) or prev.endswith("["):
                continue  # [[attribute]]
            cap_end = _match_bracket(stripped, i)
            j = cap_end
            n = len(stripped)
            while j < n and stripped[j] in " \t\n":
                j += 1
            if j < n and stripped[j] == "(":
                j = _match_paren(stripped, j)
            while j < n:
                m2 = re.match(r"\s*(mutable|constexpr|noexcept)", stripped[j:])
                if not m2:
                    break
                j += m2.end()
            m3 = re.match(r"\s*->\s*[\w:<>,\s*&]+?(?=\s*\{)", stripped[j:])
            if m3:
                j += m3.end()
            while j < n and stripped[j] in " \t\n":
                j += 1
            if j >= n or stripped[j] != "{":
                continue
            span = (j, lintcommon.match_brace(stripped, j))
            callee, is_root = self._lambda_rootness(stripped, i, prev)
            out.append((line_of(i), span, callee, is_root))
        return out

    def _lambda_rootness(self, stripped, intro_idx, prev):
        """Is this lambda a callback-context root, and via which callee?

        A lambda literal that is (a) an argument to a call whose callee
        is not a known-synchronous algorithm, (b) assigned to anything
        other than a fresh `auto` local, or (c) returned, is a root: it
        will run later, in an event context of its own.
        """
        last = prev[-1] if prev else ""
        if prev.endswith("return"):
            return ("return", True)
        if last in "(,":
            # Walk back to the opening paren of the enclosing call.
            depth = 0
            k = len(prev) - 1
            if last == ",":
                while k >= 0:
                    c = prev[k]
                    if c == ")":
                        depth += 1
                    elif c == "(":
                        if depth == 0:
                            break
                        depth -= 1
                    k -= 1
            head = prev[:k].rstrip() if k >= 0 else ""
            m = re.search(r"([A-Za-z_]\w*)\s*$", head)
            callee = m.group(1) if m else "<call>"
            return (callee, callee not in SYNC_CALLEES)
        if last == "=" and not prev.endswith(("==", "!=", "<=", ">=")):
            target = prev[:-1].rstrip()
            if re.search(r"\bauto\s*[&*]?\s*\w+$", target):
                return ("local", False)
            return ("assign", True)
        return (None, False)

    # -- declarations ------------------------------------------------------

    def _find_fields(self, stripped, raw, rel, classes, func_spans,
                     line_of, facts):
        for cname, (s, e) in classes:
            excluded = [sp for sp in func_spans if s < sp[0] < e]
            excluded += [(cs, ce) for _, (cs, ce) in classes
                         if s < cs and ce <= e]
            for stmt, off in self._class_statements(stripped, s + 1, e - 1,
                                                    excluded):
                self._field_from_statement(stmt, off, cname, rel, raw,
                                           line_of, facts)

    def _class_statements(self, stripped, start, end, excluded):
        """Yield (text, offset) of ';'-terminated statements at class-body
        depth, with nested function/class spans blanked out."""
        buf = []
        stmt_start = None
        depth = 0
        i = start
        while i < end:
            inside = next((sp for sp in excluded if sp[0] <= i < sp[1]),
                          None)
            if inside:
                i = inside[1]
                buf.append(" ")
                continue
            c = stripped[i]
            if stmt_start is None and not c.isspace():
                stmt_start = i
            if c in "({[":
                depth += 1
            elif c in ")}]":
                depth -= 1
            elif c == ";" and depth == 0:
                yield ("".join(buf), stmt_start if stmt_start is not None
                       else i)
                buf = []
                stmt_start = None
                i += 1
                continue
            buf.append(c)
            i += 1

    def _field_from_statement(self, stmt, off, cname, rel, raw, line_of,
                              facts):
        flat = " ".join(stmt.split())
        # An access label glues onto the first declaration after it
        # (`private: int count_ = 0`); peel it or the declaration is
        # invisible.
        flat = re.sub(r"^(?:public|private|protected)\s*:\s*", "", flat)
        if not flat or NOT_FIELD_STMT.match(flat):
            return
        # Strip a trailing initializer.
        m = re.match(r"(.*?)\s*=\s*[^=].*$", flat)
        decl = m.group(1) if m else flat
        decl = re.sub(r"\{[^{}]*\}\s*$", "", decl).rstrip()
        decl = re.sub(r"\[[^\]]*\]\s*$", "", decl).rstrip()
        if not decl or decl.endswith(")"):
            return  # function declaration
        m = re.search(r"([A-Za-z_]\w*)$", decl)
        if not m:
            return
        name = m.group(1)
        if name in CONTROL_KEYWORDS or decl == name:
            return  # no type before the name
        head = decl[:m.start()].strip()
        if not head or head.split()[-1] in ("operator",):
            return
        racy = "Racy<" in flat or "Racy <" in flat
        facts.add_field(Field(cname, name, rel, line_of(off), racy=racy,
                              type_text=head))
        # Racy fields brace-initialized with their object name register
        # that name in the dynamic coverage universe.
        line0 = line_of(off)
        raw_line = raw.splitlines()[line0 - 1] if line0 <= len(
            raw.splitlines()) else ""
        rm = RACY_DECL_RE.search(raw_line)
        if rm:
            facts.racy_names.add(rm.group(2))

    def _find_globals(self, stripped, rel, classes, func_spans, line_of,
                      facts):
        spans = [sp for _, sp in classes] + list(func_spans)
        for m in re.finditer(
                r"^[ \t]*(?:static\s+)?(?!const\b|constexpr\b|using\b|"
                r"typedef\b|namespace\b|class\b|struct\b|enum\b|"
                r"template\b|return\b|extern\b)"
                r"[A-Za-z_][\w:<>,\s*&]*?\s+([A-Za-z_]\w*)\s*(?:=[^;=]*)?;",
                stripped, re.M):
            off = m.start()
            if any(s <= off < e for s, e in spans):
                continue
            name = m.group(1)
            if not re.match(r"g_|[A-Za-z_]\w*_$", name):
                continue  # only convention-named globals; keeps noise out
            facts.add_field(Field("<global>", name, rel, line_of(off)))

    VAR_PTR_RE = re.compile(
        r"\b([A-Za-z_]\w*)\s*[*&]\s*(?:const\s+)?([A-Za-z_]\w*)\s*[,)=;{]")
    VAR_SMART_RE = re.compile(
        r"\b(?:shared_ptr|unique_ptr|weak_ptr)\s*<\s*([A-Za-z_]\w*)\s*>"
        r"\s*&?\s*(?:const\s+)?([A-Za-z_]\w*)")
    VAR_MAKE_RE = re.compile(
        r"\b([A-Za-z_]\w*)\s*=\s*(?:std\s*::\s*)?make_shared\s*<\s*"
        r"([A-Za-z_]\w*)\s*>")
    VAR_SELF_RE = re.compile(
        r"\bauto\s+([A-Za-z_]\w*)\s*=\s*(?:this\s*->\s*)?"
        r"shared_from_this\s*\(")

    def _infer_var_types(self, stripped, region, class_names, facts):
        s, e = region.span
        # Include the signature line(s) just before the body for params.
        sig_start = max(0, stripped.rfind("\n", 0, max(0, s - 400)))
        text = stripped[sig_start:e]
        for vm in self.VAR_PTR_RE.finditer(text):
            if vm.group(1) in class_names:
                region.var_types[vm.group(2)] = vm.group(1)
        for vm in self.VAR_SMART_RE.finditer(text):
            if vm.group(1) in class_names:
                region.var_types[vm.group(2)] = vm.group(1)
        for vm in self.VAR_MAKE_RE.finditer(text):
            if vm.group(2) in class_names:
                region.var_types[vm.group(1)] = vm.group(2)
        if region.cls:
            for vm in self.VAR_SELF_RE.finditer(text):
                region.var_types[vm.group(1)] = region.cls

    # -- uses --------------------------------------------------------------

    def _find_writes(self, stripped, rel, line_of, innermost_region,
                     facts):
        seen = set()
        for wre in WRITE_RES:
            for m in wre.finditer(stripped):
                groups = [g for g in m.groups() if g]
                chain = next((g for g in groups
                              if re.match(r"[A-Za-z_]", g)), None)
                if chain is None:
                    continue
                off = m.start()
                region = innermost_region(off)
                if region is None:
                    continue
                key = self._resolve_chain(chain, region, facts)
                if key is None:
                    continue
                site = (key, rel, line_of(off))
                if site in seen:
                    continue
                seen.add(site)
                region.writes.append(Write(
                    key, rel, line_of(off),
                    " ".join(m.group(0).split())[:60]))

    def _resolve_chain(self, chain, region, facts):
        """(class, field) a chained write mutates, or None.

        `a->b.c` mutates field b of a's pointee; `a.b.c` mutates field a
        of the enclosing object: the written field is the first
        component after the *last* `->` (value sub-paths write through
        the containing subobject).
        """
        toks = [t.strip() for t in re.split(r"(->|\.)", chain)]
        parts = toks[0::2]
        seps = toks[1::2]  # sep[i] sits between parts[i] and parts[i+1]
        if parts and parts[0] == "this":
            parts = parts[1:]
            seps = seps[1:]
        while len(parts) > 1 and parts[-1] in (ACCESSOR_TAILS |
                                               MUTATING_METHODS):
            parts = parts[:-1]
            seps = seps[:-1]
        if not parts:
            return None
        if "->" not in seps:
            head = parts[0]
            if region.cls and (region.cls, head) in facts.fields:
                return (region.cls, head)
            if ("<global>", head) in facts.fields:
                return ("<global>", head)
            return None
        # Resolve the class owning the component after the last '->'.
        last = len(seps) - 1 - seps[::-1].index("->")
        cur = None  # class of parts[i] as a pointee/value type
        for i in range(last + 1):
            name = parts[i]
            if i == 0:
                cur = region.var_types.get(name)
                if cur is None:
                    owner = None
                    if region.cls and (region.cls, name) in facts.fields:
                        owner = (region.cls, name)
                    elif ("<global>", name) in facts.fields:
                        owner = ("<global>", name)
                    if owner is None:
                        return None
                    cur = facts.class_of_type(
                        facts.fields[owner].type_text)
            else:
                if cur is None or (cur, name) not in facts.fields:
                    return None
                cur = facts.class_of_type(facts.fields[(cur, name)]
                                          .type_text)
            if cur is None:
                return None
        written = parts[last + 1]
        if (cur, written) in facts.fields:
            return (cur, written)
        return None

    MEMBER_CALL_RE = re.compile(
        r"(?:([A-Za-z_]\w*)\s*)?(?:->|\.)\s*([A-Za-z_]\w*)\s*\(")

    def _find_calls(self, stripped, rel, line_of, innermost_region,
                    facts):
        """Call edges are (receiver_class_or_None, simple_name): a
        resolvable receiver restricts the edge to that class's method,
        everything else falls back to every same-named definition."""
        for m in CALL_RE.finditer(stripped):
            name = m.group(1)
            if name in CONTROL_KEYWORDS:
                continue
            region = innermost_region(m.start())
            if region is not None:
                # A bare call inside a method prefers the own-class
                # overload when one exists.
                region.calls.append((region.cls, name))
        for m in self.MEMBER_CALL_RE.finditer(stripped):
            recv, name = m.group(1), m.group(2)
            if name in CONTROL_KEYWORDS:
                continue
            region = innermost_region(m.start())
            if region is None:
                continue
            cls = None
            if recv == "this":
                cls = region.cls
            elif recv:
                cls = region.var_types.get(recv)
                if cls is None and region.cls and \
                        (region.cls, recv) in facts.fields:
                    cls = facts.class_of_type(
                        facts.fields[(region.cls, recv)].type_text)
            region.calls.append((cls, name))

    def _find_annotations(self, raw, rel, innermost_region, facts,
                          line_starts):
        # Annotations carry their object name in a string literal, so
        # they are matched on the raw text; offsets still line up with
        # the stripped text because stripping preserves layout.
        for m in ANNOT_RE.finditer(raw):
            if "define" in raw[max(0, m.start() - 80):m.start()]:
                continue  # the macro definition itself
            region = innermost_region(m.start())
            line = _line_of(raw, m.start(), line_starts)
            ann = Annotation(m.group(1), rel, line)
            if region is not None:
                region.annotations.append(ann)
        for m in RACY_DECL_RE.finditer(raw):
            facts.racy_names.add(m.group(2))


# ---------------------------------------------------------------------------
# Analysis: provenance attribution, coverage closure, findings.
# ---------------------------------------------------------------------------

class FieldReport:
    def __init__(self, field):
        self.field = field
        self.roots = {}       # root tuple -> provenance chain [Region names]
        self.writes = []      # (Write, region, covered, roots_for_write)


def analyze(facts):
    """Returns (field_reports, reachable_annotations, covered_regions)."""
    by_name = facts.functions_by_simple_name()
    by_qual = {}
    for r in facts.regions:
        if r.kind == "function" and r.cls:
            by_qual.setdefault((r.cls, r.simple), []).append(r)
    roots = [r for r in facts.regions if r.root is not None]

    def targets_of(edge):
        cls, name = edge
        if cls is not None:
            exact = by_qual.get((cls, name))
            if exact:
                return exact
        return by_name.get(name, ())

    # Reachability from each root, with predecessor chains for reports.
    reach = {}       # root region id -> {function region id: parent region}
    for root in roots:
        seen = {}
        frontier = [(root, None)]
        visited_ids = {root.id}
        while frontier:
            cur, parent = frontier.pop()
            for edge in cur.calls:
                for target in targets_of(edge):
                    if target.id in visited_ids:
                        continue
                    visited_ids.add(target.id)
                    seen[target.id] = cur
                    frontier.append((target, cur))
        reach[root.id] = seen

    # Coverage closure: a region containing an annotation covers itself
    # and everything it (transitively) calls — an annotation at a public
    # entry covers the callees on that path.
    covered = set()
    frontier = [r for r in facts.regions if r.annotations]
    covered.update(r.id for r in frontier)
    while frontier:
        cur = frontier.pop()
        for edge in cur.calls:
            for target in targets_of(edge):
                if target.id not in covered:
                    covered.add(target.id)
                    frontier.append(target)

    regions_by_id = {r.id: r for r in facts.regions}
    reports = {}
    for region in facts.regions:
        # Constructor/destructor writes precede (follow) publication of
        # the object and cannot race; skipping them is the standard
        # vacuous-before-sharing escape.
        if region.kind == "function" and region.cls and \
                region.simple.lstrip("~") == region.cls:
            continue
        for w in region.writes:
            field = facts.fields.get(w.field_key)
            if field is None:
                continue
            touching = []
            for root in roots:
                if region is root or region.id in reach[root.id]:
                    touching.append(root)
            if not touching:
                continue
            rep = reports.setdefault(field.key, FieldReport(field))
            is_covered = field.racy or region.id in covered
            rep.writes.append((w, region, is_covered, touching))
            for root in touching:
                if root.root in rep.roots:
                    continue
                chain = []
                cur = region
                guard = 0
                while cur is not None and cur is not root and guard < 32:
                    chain.append(cur.name)
                    cur = reach[root.id].get(cur.id)
                    guard += 1
                chain.append(f"{root.root[2]}@{root.root[0]}:"
                             f"{root.root[1]}")
                rep.roots[root.root] = list(reversed(chain))

    # Statically-reachable annotations (for --xcheck): annotation sits
    # in a root or in a function reachable from one.
    reachable_ids = set()
    for root in roots:
        reachable_ids.add(root.id)
        reachable_ids.update(reach[root.id])
    reachable_annotations = []
    for region in facts.regions:
        if region.id in reachable_ids:
            reachable_annotations.extend(region.annotations)

    return reports, reachable_annotations, covered


def s1_findings(reports):
    findings = []
    for key in sorted(reports):
        rep = reports[key]
        if len(rep.roots) < 2:
            continue
        uncovered = [(w, rg) for (w, rg, cov, _) in rep.writes if not cov]
        if not uncovered:
            continue
        cls, name = key
        lines = [f"unannotated shared-mutable field {cls}::{name} "
                 f"(declared {rep.field.path}:{rep.field.line}) is "
                 f"written from {len(rep.roots)} callback contexts with "
                 f"no DPDPU_SIM_ACCESS/sim::Racy on the path:"]
        for w, rg in uncovered[:6]:
            lines.append(f"    write {w.path}:{w.line}  `{w.snippet}` "
                         f"in {rg.name}")
        for root_key in sorted(rep.roots)[:4]:
            chain = rep.roots[root_key]
            lines.append("    via " + " -> ".join(chain))
        findings.append((rep.field, f"{cls}::{name}",
                         "\n".join(lines)))
    return findings


def s2_findings(reachable_annotations, racy_names, observed):
    by_name = {}
    for ann in reachable_annotations:
        by_name.setdefault(ann.object_name, ann)
    findings = []
    for name in sorted(set(by_name) - observed):
        ann = by_name[name]
        findings.append((ann, name,
                         f"annotation object \"{name}\" "
                         f"({ann.path}:{ann.line}) is statically "
                         f"reachable from a callback context but was "
                         f"never observed dynamically — dead annotation "
                         f"or untested path"))
    for name in sorted(racy_names - observed - set(by_name)):
        findings.append((None, name,
                         f"sim::Racy object \"{name}\" was never "
                         f"observed dynamically — dead annotation or "
                         f"untested path"))
    return findings


# ---------------------------------------------------------------------------
# Driver.
# ---------------------------------------------------------------------------

def load_observed(paths):
    observed = set()
    for pattern in paths:
        matches = glob.glob(pattern)
        if not matches:
            raise SystemExit(
                f"simscope: --coverage file not found: {pattern}")
        for p in matches:
            with open(p) as f:
                for line in f:
                    line = line.strip()
                    if line and not line.startswith("#"):
                        observed.add(line)
    return observed


def validate_rule(rule):
    base = rule.split(":", 1)[0]
    if base not in RULES:
        return (f"unknown rule {rule!r} (rules: "
                f"{', '.join(sorted(RULES))})")
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="simrace annotation-coverage analyzer")
    parser.add_argument("roots", nargs="*", default=list(DEFAULT_ROOTS),
                        help="files or directories relative to the repo "
                             f"root (default: {' '.join(DEFAULT_ROOTS)})")
    parser.add_argument("--repo-root", default=REPO_ROOT)
    parser.add_argument("--allowlist", default=None,
                        help="allowlist file (default: "
                             f"<repo>/{DEFAULT_ALLOWLIST})")
    parser.add_argument("--xcheck", action="store_true",
                        help="cross-check static annotation reachability "
                             "against dynamic coverage dumps (S2)")
    parser.add_argument("--coverage", action="append", default=[],
                        help="coverage dump written by simrace under "
                             "DPDPU_SIM_RACE_COVERAGE; repeat or glob")
    parser.add_argument("--dump-facts", action="store_true",
                        help="print roots/fields/write attribution and "
                             "exit (debugging aid)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule, summary in sorted(RULES.items()):
            print(f"{rule}  {summary}")
        return 0

    if args.xcheck and not args.coverage:
        raise SystemExit("simscope: --xcheck needs at least one "
                         "--coverage file")

    facts = Facts()
    BuiltinFrontend(args.repo_root).parse_tree(args.roots, facts)
    reports, reachable_annotations, covered = analyze(facts)

    if args.dump_facts:
        roots = [r for r in facts.regions if r.root]
        print(f"# {len(facts.regions)} regions, {len(roots)} callback "
              f"roots, {len(facts.fields)} fields")
        for key in sorted(reports):
            rep = reports[key]
            cov = all(c for (_, _, c, _) in rep.writes)
            print(f"{key[0]}::{key[1]}: {len(rep.roots)} roots, "
                  f"{len(rep.writes)} writes, "
                  f"{'covered' if cov else 'UNCOVERED'}")
        return 0

    # --- suppression policy (shared with simlint via lintcommon) ---------
    allowlist_path = args.allowlist or os.path.join(
        args.repo_root, DEFAULT_ALLOWLIST)
    allowlist = lintcommon.load_allowlist(allowlist_path, validate_rule)
    violations = []
    suppressing_keys = set()
    scanned = set()

    # Inline allows are anchored at the *finding* site (the field
    # declaration for S1, the annotation site for S2).
    inline_by_file = {}

    def inline_allows(path):
        if path not in inline_by_file:
            full = os.path.join(args.repo_root, path)
            errors = []
            try:
                with open(full) as f:
                    text = f.read()
            except OSError:
                text = ""
            allowed = lintcommon.inline_suppressions(
                text, path, errors, "simscope", "S[12]")
            inline_by_file[path] = (allowed, errors, set())
        return inline_by_file[path]

    def suppressed(path, rule, subject, line):
        allowed, _errors, used_inline = inline_allows(path)
        covered_lines = allowed.get(rule, {})
        if line in covered_lines:
            used_inline.add((rule, covered_lines[line]))
            return True
        for key in ((path, f"{rule}:{subject}"), (path, rule)):
            if key in allowlist:
                suppressing_keys.add(key)
                return True
        return False

    for field, subject, message in s1_findings(reports):
        scanned.add(field.path)
        if not suppressed(field.path, "S1", subject, field.line):
            violations.append(Violation(field.path, field.line, "S1",
                                        message))

    if args.xcheck:
        observed = load_observed(args.coverage)
        for ann, subject, message in s2_findings(
                reachable_annotations, facts.racy_names, observed):
            path = ann.path if ann else allowlist_path
            line = ann.line if ann else 1
            scanned.add(path)
            if not suppressed(path, "S2", subject, line):
                violations.append(Violation(path, line, "S2", message))
        extra = observed - {a.object_name
                            for a in reachable_annotations} - \
            facts.racy_names
        if extra:
            print(f"simscope: note: {len(extra)} dynamically-observed "
                  f"object(s) outside the static root-reachable set: "
                  f"{', '.join(sorted(extra))}")

    # Stale-suppression detection, same policy as simlint. Every parsed
    # file is examined — an allow comment in a file with no findings is
    # by definition suppressing nothing.
    for path in {r.path for r in facts.regions} | {
            f.path for f in facts.fields.values()}:
        inline_allows(path)
    for path, (allowed, errors, used_inline) in sorted(
            inline_by_file.items()):
        violations.extend(errors)
        violations.extend(lintcommon.stale_inline_allows(
            path, allowed, used_inline))
    # Every file is "scanned" for staleness purposes when it was parsed
    # at all: an entry for a parsed file whose finding no longer fires
    # is stale.
    parsed = {r.path for r in facts.regions} | {
        f.path for f in facts.fields.values()}
    judged = parsed if not args.xcheck else parsed | scanned
    # S2 entries can only suppress when --xcheck runs; don't judge them
    # stale in a plain run.
    judged_allowlist = {k: v for k, v in allowlist.items()
                        if args.xcheck or not k[1].startswith("S2")}
    violations.extend(lintcommon.stale_allowlist_entries(
        judged_allowlist, suppressing_keys, judged, args.repo_root,
        allowlist_path))

    for v in violations:
        print(v)
    if violations:
        print(f"simscope: {len(violations)} finding(s)")
        return 1
    nroots = sum(1 for r in facts.regions if r.root)
    print(f"simscope: OK ({nroots} callback contexts, "
          f"{len(reports)} shared fields, all covered)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
