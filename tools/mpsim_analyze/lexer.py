"""C++ tokenizer for mpsim_analyze.

A deliberately small lexer: enough C++ to build a symbol table and a call
graph over this repository's sources, with zero third-party dependencies.
It understands line/block comments, string/char literals (including raw
strings), preprocessor lines, identifiers, numbers and multi-character
punctuators. It does not preprocess: macros are tokenized as identifiers,
which is what the call-site extractor wants (an `MPSIM_TRACE(rec, b(...))`
site still exposes the builder call `b(...)` to the parser). Preprocessor
lines yield no tokens.

Comments are not emitted as tokens, but `// mpsim-analyze: allow(...)`
markers are collected per line so rule passes can honor suppressions.
Alongside the tokens the lexer keeps a *code view* of the file: the source
with every comment and string/char literal body blanked to spaces (line
and column positions unchanged), which is what the rule regexes match, so
prose can never trigger a rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
IDENT_CONT = IDENT_START | set("0123456789")

# Longest-match punctuators the parser cares about distinguishing.
PUNCT3 = ("<<=", ">>=", "...", "->*")
PUNCT2 = ("::", "->", "<<", ">>", "<=", ">=", "==", "!=", "&&", "||",
          "++", "--", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=")

ALLOW_RE = re.compile(r"//\s*mpsim-analyze:\s*allow\(([\w\-,\s]+)\)")


@dataclass(frozen=True)
class Token:
    kind: str  # 'ident' | 'number' | 'string' | 'char' | 'punct'
    text: str
    line: int


@dataclass
class LexedFile:
    path: str
    tokens: list  # list[Token]
    lines: list   # raw source lines (1-based access via lines[i-1])
    code: list    # the same lines with comments and literal bodies blanked
    allows: dict  # line -> {rule, ...} for every allow marker on that line


def _collect_allows(lines: list) -> dict:
    allows: dict = {}
    for i, raw in enumerate(lines, start=1):
        for m in ALLOW_RE.finditer(raw):
            for rule in m.group(1).split(","):
                allows.setdefault(i, set()).add(rule.strip())
    return allows


def _blank(text: str, spans: list) -> str:
    """text with every non-whitespace character of each [start, end) span
    replaced by a space; whitespace (so every line break) is kept, so the
    result splits into the same lines as text."""
    out, pos = [], 0
    for a, b in spans:
        out.append(text[pos:a])
        out.append(re.sub(r"\S", " ", text[a:b]))
        pos = b
    out.append(text[pos:])
    return "".join(out)


def lex(path: str, text: str) -> LexedFile:
    tokens: list = []
    blanked: list = []  # comment and literal-body spans, in order
    lines = text.splitlines()
    n = len(text)
    i = 0
    line = 1
    directive = False  # inside a preprocessor line: emit no tokens

    def peek(k: int = 0) -> str:
        j = i + k
        return text[j] if j < n else ""

    def emit(kind: str, txt: str) -> None:
        if not directive:
            tokens.append(Token(kind, txt, line))

    while i < n:
        c = text[i]
        if c == "\n":
            # A directive ends at the first newline not escaped by '\\'.
            if i == 0 or text[i - 1] != "\\":
                directive = False
            line += 1
            i += 1
            continue
        if c in " \t\r\f\v":
            i += 1
            continue
        # Comments.
        if c == "/" and peek(1) == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            blanked.append((i, j))
            i = j
            continue
        if c == "/" and peek(1) == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            blanked.append((i, j))
            line += text.count("\n", i, j)
            i = j
            continue
        # Preprocessor: the directive's comments and literals are still
        # blanked (the code view keeps the directive), but its words are
        # not C++ tokens.
        if c == "#" and not directive and \
                (not tokens or tokens[-1].line != line):
            directive = True
            i += 1
            continue
        # Raw strings: R"delim( ... )delim".
        if c == "R" and peek(1) == '"':
            m = re.match(r'R"([^()\\ ]{0,16})\(', text[i:])
            if m:
                close = ")" + m.group(1) + '"'
                j = text.find(close, i + m.end())
                j = n if j == -1 else j + len(close)
                blanked.append((i + m.end(), max(i + m.end(), j - len(close))))
                emit("string", '""')
                line += text.count("\n", i, j)
                i = j
                continue
        if c == '"' or (c == "'" and not _is_digit_separator(tokens)):
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                if text[j] == "\\":
                    j += 1
                j += 1
            blanked.append((i + 1, min(j, n)))
            emit("string" if quote == '"' else "char",
                 '""' if quote == '"' else "' '")
            line += text.count("\n", i, j)
            i = j + 1
            continue
        if c in IDENT_START:
            j = i + 1
            while j < n and text[j] in IDENT_CONT:
                j += 1
            emit("ident", text[i:j])
            i = j
            continue
        if c.isdigit() or (c == "." and peek(1).isdigit()):
            j = i + 1
            while j < n and (text[j] in IDENT_CONT or text[j] in ".'"
                             or (text[j] in "+-" and text[j - 1] in "eEpP")):
                j += 1
            emit("number", text[i:j])
            i = j
            continue
        three, two = text[i:i + 3], text[i:i + 2]
        tok = three if three in PUNCT3 else two if two in PUNCT2 else c
        emit("punct", tok)
        i += len(tok)

    return LexedFile(path=path, tokens=tokens, lines=lines,
                     code=_blank(text, blanked).splitlines(),
                     allows=_collect_allows(lines))


def _is_digit_separator(tokens: list) -> bool:
    """True when a ' directly follows a number token (1'000'000)."""
    return bool(tokens) and tokens[-1].kind == "number"
