"""Packaged indexing rule sets, one minilang prelude per rule.

Rule `r`'s prelude is the file `preludes/<r with "-" as "_">.mjl` next to
this module.
"""

from __future__ import annotations

from pathlib import Path

__all__ = ["RULE_NAMES", "UnknownRuleError", "prelude_source"]

RULE_NAMES = ("trailing-drop", "all-drop", "apl", "drop-size1")


class UnknownRuleError(ValueError):
    def __init__(self, rule: str):
        known = ", ".join(RULE_NAMES)
        super().__init__(f"unknown indexing rule {rule!r}; known rules: {known}")
        self.rule = rule


def prelude_source(rule: str) -> str:
    if rule not in RULE_NAMES:
        raise UnknownRuleError(rule)
    path = Path(__file__).with_name("preludes") / f"{rule.replace('-', '_')}.mjl"
    return path.read_text(encoding="utf-8")
