"""Temporal-signal lexicon: relation-classed words and phrases.

Signals are words like "before", "after", or "during" that express a
temporal relation without naming a time. Each lexicon entry maps a phrase
to one of three relation classes. The default lexicon ships with the
package and can be replaced by a ``phrase<TAB>CLASS`` file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from pathlib import Path

from .errors import NotInLexiconError, ParseError
from .manifest import read_pairs, write_atomic


class Relation(str, Enum):
    BEFORE = "BEFORE"
    AFTER = "AFTER"
    OVERLAP = "OVERLAP"


DEFAULT_ENTRIES: tuple[tuple[str, Relation], ...] = (
    ("before", Relation.BEFORE),
    ("prior to", Relation.BEFORE),
    ("until", Relation.BEFORE),
    ("by", Relation.BEFORE),
    ("after", Relation.AFTER),
    ("following", Relation.AFTER),
    ("since", Relation.AFTER),
    ("from", Relation.AFTER),
    ("during", Relation.OVERLAP),
    ("in", Relation.OVERLAP),
    ("on", Relation.OVERLAP),
    ("at", Relation.OVERLAP),
    ("throughout", Relation.OVERLAP),
    ("amid", Relation.OVERLAP),
)

# Bare prepositions tagged only when they immediately precede a temporal
# expression; tagging every "in"/"on"/"at" would flood the signal set.
CONTEXT_RESTRICTED: frozenset[str] = frozenset({"in", "on", "at", "by", "from"})


@dataclass
class SignalLexicon:
    """Phrase -> relation map with longest-phrase matching support; change ``entries`` through ``add``."""

    entries: dict[tuple[str, ...], Relation] = field(default_factory=dict)
    restricted: frozenset[str] = CONTEXT_RESTRICTED

    @cached_property
    def phrase_heads(self) -> dict[str, int]:
        """Each phrase's first word, to the length of the longest phrase it starts; computed once after ``add``."""
        return {key[0]: len(key) for key in sorted(self.entries, key=len) if key}

    def add(self, phrase: str, relation: Relation) -> None:
        key = tuple(phrase.lower().split())
        if not key:
            raise ParseError("empty lexicon phrase")
        self.entries[key] = relation
        vars(self).pop("phrase_heads", None)

    def classify(self, phrase: str) -> Relation:
        """Relation class of a known phrase; raises on unknown phrases."""
        key = tuple(phrase.lower().split())
        try:
            return self.entries[key]
        except KeyError:
            raise NotInLexiconError(f"phrase not in signal lexicon: {phrase!r}") from None

    def is_restricted(self, phrase_tokens: tuple[str, ...]) -> bool:
        return len(phrase_tokens) == 1 and phrase_tokens[0] in self.restricted

    @staticmethod
    def default() -> "SignalLexicon":
        lex = SignalLexicon()
        for phrase, relation in DEFAULT_ENTRIES:
            lex.add(phrase, relation)
        return lex

    @staticmethod
    def load(path: str | Path) -> "SignalLexicon":
        """Load a UTF-8 ``phrase<TAB>CLASS`` file; ``#`` starts a comment."""
        lex = SignalLexicon()
        for lineno, phrase, cls in read_pairs(path, "\t", "phrase<TAB>CLASS"):
            try:
                relation = Relation(cls.upper())
            except ValueError:
                raise ParseError(f"unknown relation class {cls!r}", lineno) from None
            lex.add(phrase, relation)
        return lex

    def save(self, path: str | Path) -> None:
        lines = ["# temporal signal lexicon: phrase<TAB>CLASS"]
        for key, relation in sorted(self.entries.items()):
            lines.append(f"{' '.join(key)}\t{relation.value}")
        write_atomic(path, ["\n".join(lines) + "\n"])
