"""``# repro: noqa[RULE]`` suppression comments.

Three spellings, tightest first:

* ``# repro: noqa[DET003]`` — suppress exactly one rule on this line,
* ``# repro: noqa[DET]`` — suppress a whole rule family on this line,
* ``# repro: noqa`` — suppress everything on this line (discouraged;
  reviewers should ask for a rule code).

Comments are found with :mod:`tokenize`, not a per-line regex, so a
``# repro: noqa`` inside a string literal never suppresses anything.
"""

from __future__ import annotations

import io
import re
import tokenize

from .findings import Finding

__all__ = ["noqa_lines", "is_suppressed"]

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)

#: line -> None (blanket suppression) or the set of rule codes/families
NoqaMap = dict[int, frozenset[str] | None]


def noqa_lines(source: str) -> NoqaMap:
    """Map line numbers to the suppressions their comments declare."""
    out: NoqaMap = {}
    if "noqa" not in source.lower():
        return out  # no comment can match: skip tokenizing the file
    reader = io.StringIO(source).readline
    try:
        for tok in tokenize.generate_tokens(reader):
            if tok.type != tokenize.COMMENT:
                continue
            m = _NOQA_RE.search(tok.string)
            if m is None:
                continue
            line = tok.start[0]
            rules = m.group("rules")
            if rules is None:
                out[line] = None  # blanket
            else:
                names = frozenset(
                    r.strip().upper() for r in rules.split(",") if r.strip()
                )
                prior = out.get(line)
                if line in out and prior is None:
                    continue  # an earlier blanket wins
                out[line] = names | (prior or frozenset())
    except (SyntaxError, tokenize.TokenError):
        # Unparseable files produce a PARSE finding elsewhere; no
        # suppression info is recoverable.
        pass
    return out


def is_suppressed(finding: Finding, noqa: NoqaMap) -> bool:
    """Does a ``# repro: noqa`` on the finding's line cover its rule?"""
    if finding.line not in noqa:
        return False
    rules = noqa[finding.line]
    if rules is None:
        return True
    return finding.rule in rules or finding.prefix in rules
