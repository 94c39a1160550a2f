#!/usr/bin/env python3
"""Lists public surface that nothing uses.

Scans every function declared in src/**/*.hpp and reports:

  unreferenced  functions that no code file names except the header that
                declares them and the .cpp beside it;
  test-only     functions that, beyond those two files, only tests/ names;
  unset fields  fields of src/ structs named *Config that no code file
                assigns (`.field =`, `->field =`, or a designated
                initializer).

Code files are the C++ sources under src/, bench/, examples/, benchmark/,
tools/ and tests/; comments and string literals are stripped before any
name is matched. A name match is a starting list, not a verdict: it misses
overloads and virtuals, and a common name (`read`, `size`) always matches.

  python3 tools/surface_scan.py            # print the three lists
  python3 tools/surface_scan.py --check    # exit 1 on an unreferenced
                                           # function not in the allowlist

The allowlist, tools/surface_allowlist.txt, holds one `name  reason` per
line; a listed name is reported but does not fail --check.
"""

from __future__ import annotations

import argparse
import re
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "bench", "examples", "benchmark", "tools", "tests")
CODE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
ALLOWLIST = ROOT / "tools" / "surface_allowlist.txt"

# Tokens that can precede "name(" without making it a declaration.
KEYWORDS = {
    "alignas", "alignof", "and", "assert", "case", "co_await", "co_return",
    "co_yield", "constexpr", "decltype", "delete", "do", "else", "explicit",
    "for", "if", "new", "noexcept", "not", "operator", "or", "requires",
    "return", "sizeof", "static_assert", "switch", "throw", "typeid",
    "using", "while",
}
# Matches the scan makes that are not functions of this project: a GCC
# attribute and a standard-library call in a header's inline body.
NOT_FUNCTIONS = {"__attribute__", "rethrow_exception"}

TOKEN = re.compile(r"[A-Za-z_]\w*|::|->|&&|\S")
IDENT = re.compile(r"[A-Za-z_]\w*")


def strip(text: str) -> str:
    """Drops comments and string and character literals, keeping newlines."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == "R" and text.startswith('R"', i) and (i == 0 or not text[i - 1].isalnum()):
            open_paren = text.find("(", i + 2)
            delim = ")" + text[i + 2:open_paren] + '"'
            j = text.find(delim, open_paren)
            j = n if j < 0 else j + len(delim)
            out.append('""' + "\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            if c == "'" and i > 0 and text[i - 1].isalnum():
                # A digit separator (1'000), not a character literal.
                i += 1
                continue
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def code_files() -> list[Path]:
    files = []
    for d in CODE_DIRS:
        base = ROOT / d
        if base.is_dir():
            files.extend(p for p in base.rglob("*") if p.suffix in CODE_SUFFIXES and p.is_file())
    return sorted(files)


def follows_type(tokens: list[str], k: int) -> bool:
    """Whether tokens[k - 1] ends a type (or an attribute), as before a
    declared name, and not an operator, keyword or member access."""
    prev = tokens[k - 1] if k > 0 else ""
    if IDENT.fullmatch(prev):
        return prev not in KEYWORDS
    if prev == "]":
        return k > 1 and tokens[k - 2] == "]"  # [[nodiscard]]
    if prev in {"*", "&", "&&"}:  # a pointer or reference type, not a product
        return k > 1 and (IDENT.fullmatch(tokens[k - 2]) is not None or tokens[k - 2] == ">")
    return prev == ">"


def is_declaration(tokens: list[str], k: int) -> bool:
    """Whether tokens[k] declares or defines a function: `type name(`, or an
    out-of-line `type Class::name(`."""
    if k + 1 >= len(tokens) or tokens[k + 1] != "(":
        return False
    if follows_type(tokens, k):
        return True
    return (k > 2 and tokens[k - 1] == "::" and IDENT.fullmatch(tokens[k - 2]) is not None
            and tokens[k - 2] != "std" and follows_type(tokens, k - 2))


def declared_functions(tokens: list[str]) -> set[str]:
    """Names a header declares as functions (macros and NOT_FUNCTIONS aside)."""
    return {
        t for k, t in enumerate(tokens)
        if IDENT.fullmatch(t) and t not in KEYWORDS and not t.isupper()
        and t not in NOT_FUNCTIONS and is_declaration(tokens, k)
    }


def used_in(tokens: list[str], name: str) -> bool:
    """Whether `name` occurs in `tokens` other than where it is declared."""
    return any(t == name and not is_declaration(tokens, k) for k, t in enumerate(tokens))


def config_fields(text: str) -> list[tuple[str, str]]:
    """(struct, field) for every data member of a struct named *Config."""
    fields = []
    for m in re.finditer(r"\bstruct\s+(\w*Config)\s*(?::[^{;]*)?\{", text):
        depth = 1
        i = m.end()
        start = i
        while i < len(text) and depth:
            depth += {"{": 1, "}": -1}.get(text[i], 0)
            i += 1
        body = text[start:i - 1]
        # Keep only the struct's own level: drop nested braces' contents.
        flat = []
        depth = 0
        for c in body:
            if c == "{":
                depth += 1
                flat.append("{")
            elif c == "}":
                depth -= 1
                flat.append("}")
            elif depth == 0:
                flat.append(c)
        for stmt in "".join(flat).split(";"):
            stmt = stmt.strip()
            head = stmt.split("=")[0]
            if (not stmt or "(" in head or "operator" in head
                    or stmt.startswith(("using", "static", "friend", "enum", "struct", "public",
                                        "private", "template"))):
                continue
            names = IDENT.findall(re.sub(r"\{\}$", "", head.strip()))
            if len(names) >= 2:
                fields.append((m.group(1), names[-1]))
    return fields


def top_dir(path: Path) -> str:
    return path.relative_to(ROOT).parts[0]


def scan() -> dict[str, list]:
    files = code_files()
    headers = [p for p in files if p.suffix == ".hpp" and top_dir(p) == "src"]
    stripped = {p: strip(p.read_text(encoding="utf-8", errors="replace")) for p in files}
    named_in: dict[str, set[Path]] = defaultdict(set)
    for p, text in stripped.items():
        for word in set(IDENT.findall(text)):
            named_in[word].add(p)

    tokens = {p: TOKEN.findall(stripped[p]) for p in files}
    unreferenced, test_only = [], []
    for header in headers:
        own = [p for p in (header, header.with_suffix(".cpp")) if p in tokens]
        for name in sorted(declared_functions(tokens[header])):
            if any(used_in(tokens[p], name) for p in own):
                continue
            users = named_in[name] - set(own)
            rel = header.relative_to(ROOT).as_posix()
            if not users:
                unreferenced.append((rel, name))
            elif all(top_dir(u) == "tests" for u in users):
                test_only.append((rel, name))

    assigned = set()
    for text in stripped.values():
        # A write to the field, or to a field of it (`cfg.tdvfs.threshold = ...`).
        assigned.update(re.findall(
            r"(?=(?:\.|->)\s*([A-Za-z_]\w*)\s*(?:=(?!=)|[-+*/]=|(?:\.\w+)+\s*=(?!=)))", text))
    unset, total = [], 0
    for header in headers:
        for struct, field in config_fields(stripped[header]):
            total += 1
            if field not in assigned:
                unset.append((header.relative_to(ROOT).as_posix(), f"{struct}::{field}"))
    return {"unreferenced": unreferenced, "test_only": test_only, "unset": unset,
            "config_fields": total}


def read_allowlist() -> dict[str, str]:
    allowed = {}
    if ALLOWLIST.exists():
        for line in ALLOWLIST.read_text(encoding="utf-8").splitlines():
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, reason = line.partition(" ")
                allowed[name] = reason.strip()
    return allowed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on an unreferenced function the allowlist does not name")
    args = parser.parse_args()

    result = scan()
    allowed = read_allowlist()
    for missing in sorted(set(allowed) - {n for _, n in result["unreferenced"]}):
        print(f"note: allowlisted {missing} is referenced now; drop it from the allowlist")

    print(f"unreferenced functions ({len(result['unreferenced'])}):")
    for header, name in result["unreferenced"]:
        note = f"  [allowed: {allowed[name]}]" if name in allowed else ""
        print(f"  {header}: {name}{note}")
    if not args.check:
        print(f"test-only functions ({len(result['test_only'])}):")
        for header, name in result["test_only"]:
            print(f"  {header}: {name}")
        print(f"config fields no file assigns ({len(result['unset'])} "
              f"of {result['config_fields']}):")
        for header, field in result["unset"]:
            print(f"  {header}: {field}")

    failing = [name for _, name in result["unreferenced"] if name not in allowed]
    if args.check and failing:
        print(f"FAIL: {len(failing)} function(s) that no file names: {', '.join(failing)}; "
              f"delete them or list them in {ALLOWLIST.relative_to(ROOT)} with a reason",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
