"""Grammar-error injection through a text-completion client.

The client is prompted to corrupt a clean sentence with plausible grammar
mistakes, describe each mistake, and then correct the corrupted sentence
back. A pair is kept only if the client's own correction reproduces the
original clean text exactly (roundtrip filtration); that self-consistency
check is what makes the synthesized pairs trustworthy at scale.

Responses are parsed from a fixed marker format:

    **Ungrammatical sentences**: <corrupted text>
    **Error 1: <error name>**: <explanation>
    ...
    **Corrected sentences**: <corrected text>

Two clients are provided: an HTTP client (`util.post_text`, shared with the
HTTP judge) and a deterministic rule-based mock that exercises the full
render/parse/filter path without any external service.
"""

from __future__ import annotations

import functools
import re
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Protocol, Sequence

from .records import Document, ECExample, ErrorAnnotation
from .util import (
    MAX_RETRIES, RETRY_BACKOFF, TIMEOUT, TRANSIENT_ERRORS, Draws, derive_seed, nfc, post_text,
)

# the sentence slot is fenced so clients (and the mock) can recover it exactly
_SLOT_OPEN = "<<<"
_SLOT_CLOSE = ">>>"

# literal "**" inside user text would collide with the marker format
_ESCAPED_STARS = "*\\*"

ERROR_CATALOG = (
    "Subject-verb agreement error",
    "Verb tense error",
    "Pluralization error",
    "Missing word error",
    "Capitalization error",
    "Word order error",
    "Article error",
    "Preposition error",
    "Spelling error",
    "Run-on sentence error",
)

PROMPT_TEMPLATE = """\
You are an English teacher preparing error-correction practice material.
Here is a catalog of common grammatical mistakes your students make:

{catalog}

Given the following sentence(s):
{slot_open}
{text}
{slot_close}

Which of the cataloged mistakes would a student plausibly make when writing
this? Apply one or more of them to the original sentence(s) to produce the
ungrammatical sentence(s). Do not modify the original sentence(s) except
applying the grammatical errors.

Then describe every error you introduced, and finally correct the
ungrammatical sentence(s). Do not modify the sentence(s) except correcting
the grammatical errors.

Reply in exactly this format, with nothing before or after:
**Ungrammatical sentences**: <the ungrammatical sentence(s)>
**Error 1: <error name>**: <what is wrong and why>
**Error 2: <error name>**: <one such line per introduced error>
**Corrected sentences**: <the corrected sentence(s)>
"""


class ParseError(ValueError):
    """A required response section is missing or empty."""

    def __init__(self, section: str, detail: str = ""):
        self.section = section
        super().__init__(f"missing or invalid section {section!r}" + (f": {detail}" if detail else ""))


class InjectionError(RuntimeError):
    """The client failed to produce a usable completion within its budget."""


class SkipExample(Exception):
    """The input cannot be corrupted (e.g. too short to tokenize)."""


@dataclass(frozen=True)
class InjectionResponse:
    ungrammatical: str
    errors: tuple[ErrorAnnotation, ...]
    corrected: str
    raw: str


class InjectorClient(Protocol):
    def complete(self, prompt: str) -> str: ...


def _escape(text: str) -> str:
    return text.replace("**", _ESCAPED_STARS)


def _unescape(text: str) -> str:
    return text.replace(_ESCAPED_STARS, "**")


# the filled template before and after its {text} slot, the one part that varies
_PROMPT_HEAD, _PROMPT_TAIL = PROMPT_TEMPLATE.format(
    catalog="\n".join(f"{i + 1}. {name}" for i, name in enumerate(ERROR_CATALOG)),
    slot_open=_SLOT_OPEN,
    text="{text}",
    slot_close=_SLOT_CLOSE,
).split("{text}")
_SLOT_RE = re.compile(re.escape(_SLOT_OPEN) + r"\n(.*?)\n" + re.escape(_SLOT_CLOSE), re.DOTALL)


def render_prompt(clean_text: str) -> str:
    """Fill the injection prompt template with one clean example."""
    if not clean_text.strip():
        raise ValueError("render_prompt: empty text")
    return _PROMPT_HEAD + _escape(nfc(clean_text)) + _PROMPT_TAIL


def extract_slot(prompt: str) -> str:
    """Recover the clean text from a rendered prompt (used by the mock client)."""
    m = _SLOT_RE.search(prompt)
    if m is None:
        raise InjectionError("prompt does not carry a fenced sentence slot")
    return _unescape(m.group(1))


# ordered keyword table; first match wins
_CATEGORY_KEYWORDS = (
    ("agreement", "verb"),
    ("verb", "verb"),
    ("plur", "plural"),
    ("missing", "missing_word"),
    ("capital", "capitalization"),
    ("order", "word_order"),
    ("article", "article"),
    ("preposition", "preposition"),
    ("spell", "spelling"),
    ("typo", "spelling"),
)


def categorize_error_label(label: str) -> str:
    low = label.lower()
    for keyword, category in _CATEGORY_KEYWORDS:
        if keyword in low:
            return category
    return "other"


_MARKER_RE = re.compile(r"^\*\*(?P<label>[^*\n]+)\*\*\s*:\s*", re.MULTILINE)
_ERROR_LABEL_RE = re.compile(r"^error\s*\d+\s*:\s*(?P<name>.+)$", re.IGNORECASE)


@functools.lru_cache(maxsize=1024)
def _annotation(name: str) -> ErrorAnnotation:
    """The annotation of an error named `name`; records are immutable, so parses share it."""
    return ErrorAnnotation(category=categorize_error_label(name), description=name)


def parse_response(raw: str) -> InjectionResponse:
    """Split a completion into its marker sections.

    Raises ParseError naming the missing section; a response listing zero
    errors is also rejected.
    """
    # [text before the first marker, label 1, section 1, label 2, section 2, ...]
    parts = _MARKER_RE.split(raw)
    ungrammatical: str | None = None
    corrected: str | None = None
    errors: list[ErrorAnnotation] = []
    for label, content in zip(parts[1::2], parts[2::2]):
        label = label.strip()
        low = label.lower()
        if low.startswith("ungrammatical sentence"):
            ungrammatical = content.strip()
        elif low.startswith("corrected sentence"):
            corrected = content.strip()
        elif m := _ERROR_LABEL_RE.match(label):
            errors.append(_annotation(m.group("name").strip()))
    if ungrammatical is None or not ungrammatical:
        raise ParseError("ungrammatical")
    if corrected is None or not corrected:
        raise ParseError("corrected")
    if not errors:
        raise ParseError("errors", "no error descriptions listed")
    return InjectionResponse(
        ungrammatical=nfc(_unescape(ungrammatical)),
        errors=tuple(errors),
        corrected=nfc(_unescape(corrected)),
        raw=raw,
    )


# -- deterministic mock client --


_AGREEMENT_PAIRS = {
    "is": "are", "are": "is",
    "has": "have", "have": "has",
    "was": "were", "were": "was",
    "does": "do", "do": "does",
}
_ARTICLES = {"a", "an", "the"}
_PLURAL_STOP = {
    "is", "are", "has", "have", "was", "were", "does", "do", "this", "that",
    "these", "those", "its", "his", "hers", "as", "us", "yes",
}


def check_failure_rate(failure_rate: float) -> None:
    if not 0.0 <= failure_rate <= 1.0:
        raise ValueError(f"failure_rate must be in [0, 1], got {failure_rate}")


def check_concurrency(concurrency: int) -> None:
    if concurrency < 1:
        raise ValueError(f"concurrency must be >= 1, got {concurrency}")


def check_timeout(timeout: float) -> None:
    if not timeout > 0:
        raise ValueError(f"timeout must be > 0, got {timeout}")


def check_max_retries(max_retries: int) -> None:
    if max_retries < 0:
        raise ValueError(f"max_retries must be >= 0, got {max_retries}")


def _strip_punct(word: str) -> tuple[str, str]:
    core = word.rstrip(".,!?;:")
    return core, word[len(core):]


# A mock rule edits a document's (core, trailing punctuation) tokens in place and
# returns its (error label, detail), or None when an earlier rule took its target.
_Tokens = list[tuple[str, str]]


def _swap_agreement(ws: _Tokens) -> tuple[str, str] | None:
    for i, (core, punct) in enumerate(ws):
        swapped = _AGREEMENT_PAIRS.get(core.lower())
        if swapped:
            swapped = swapped.capitalize() if core[0].isupper() else swapped
            ws[i] = swapped, punct
            return "Subject-verb agreement error", f'"{core}" was replaced with "{swapped}", breaking agreement'
    return None


def _plural_candidates(ws: _Tokens) -> list[int]:
    return [
        i for i, (core, _) in enumerate(ws)
        if len(core) >= 3 and core.isalpha() and core.lower() not in _PLURAL_STOP
    ]


def _toggle_plural(ws: _Tokens) -> tuple[str, str]:
    # the agreement swap trades stop words only, so these are the clean tokens' candidates
    idx = _plural_candidates(ws)[-1]
    core, punct = ws[idx]
    toggled = core[:-1] if core.lower().endswith("s") else core + "s"
    ws[idx] = toggled, punct
    return "Pluralization error", f'"{core}" was replaced with "{toggled}"'


def _drop_article(ws: _Tokens) -> tuple[str, str] | None:
    # the plural toggle may have taken the only bare article ("the" -> "thes")
    for i, (core, punct) in enumerate(ws):
        if core.lower() in _ARTICLES and not punct:
            del ws[i]
            return "Missing word error", f'the article "{core}" was dropped'
    return None


def _lower_start(ws: _Tokens) -> tuple[str, str]:
    # after a dropped article, this lowercases the word now first
    core, punct = ws[0]
    ws[0] = core[:1].lower() + core[1:], punct
    return "Capitalization error", "the sentence start was lowercased"


# (does it apply to the clean tokens, apply it to the tokens so far), in application order
_MOCK_RULES = (
    (lambda toks: any(core.lower() in _AGREEMENT_PAIRS for core, _ in toks), _swap_agreement),
    (lambda toks: bool(_plural_candidates(toks)), _toggle_plural),
    (lambda toks: any(core.lower() in _ARTICLES and not punct for core, punct in toks), _drop_article),
    (lambda toks: toks[0][0][:1].isupper(), _lower_start),
)


class MockInjector:
    """Seeded rule-based stand-in for the external model.

    Applies 1..3 corruptions (verb agreement swap, plural toggle, dropped
    article, lowercased sentence start) and emits a completion in the marker
    format, so the full parse/filter path is exercised. With probability
    failure_rate the corrected section is deliberately wrong, which the
    roundtrip filter must catch.
    """

    def __init__(self, failure_rate: float = 0.0, seed: int = 0):
        check_failure_rate(failure_rate)
        self.failure_rate = failure_rate
        self.seed = seed

    def inject(self, clean: str, seed: int | None = None) -> InjectionResponse:
        """Corrupt one clean example; raises SkipExample when untokenizable."""
        return parse_response(self._reply(clean, seed))

    def complete(self, prompt: str) -> str:
        return self._reply(extract_slot(prompt))

    def _reply(self, clean: str, seed: int | None = None) -> str:
        """The completion for one clean example, in the marker format."""
        clean = nfc(clean)
        toks = [_strip_punct(w) for w in clean.split()]
        if len(toks) < 2:
            raise SkipExample(f"need at least 2 words, got {len(toks)}")
        # the draws of default_rng(seed).integers, .choice(replace=False) and .random
        rng = Draws(derive_seed(self.seed, clean) if seed is None else seed)

        rules = [apply for applies, apply in _MOCK_RULES if applies(toks)]
        if not rules:
            raise SkipExample("no corruption rule applies")
        n_errors = min(rng.integers(1, 4), len(rules))
        picks = rng.choice(len(rules), n_errors)
        annotations = [note for i in sorted(picks) if (note := rules[i](toks))]
        ungrammatical = " ".join(core + punct for core, punct in toks)

        corrected = clean
        if self.failure_rate > 0 and rng.random() < self.failure_rate:
            # deliberately bad self-correction, to be caught by filtration
            corrected = (
                clean[:-1] + " indeed." if clean.endswith(".") else clean + " indeed"
            )

        lines = [f"**Ungrammatical sentences**: {_escape(ungrammatical)}"]
        for i, (label, detail) in enumerate(annotations, start=1):
            lines.append(f"**Error {i}: {label}**: {detail}")
        lines.append(f"**Corrected sentences**: {_escape(corrected)}")
        return "\n".join(lines)


@dataclass
class HttpInjector:
    """External completion endpoint: POST {"prompt": ...} -> {"text": ...}.

    Honors a per-request timeout and a bounded retry budget; when the budget
    is exhausted the request fails with InjectionError so callers can drop
    and count the example rather than silently skip it.
    """

    endpoint: str
    token: str = ""
    timeout: float = TIMEOUT
    max_retries: int = MAX_RETRIES
    retry_backoff: float = RETRY_BACKOFF

    def __post_init__(self) -> None:
        check_timeout(self.timeout)
        check_max_retries(self.max_retries)

    def complete(self, prompt: str) -> str:
        try:
            return post_text(
                self.endpoint, prompt, self.token,
                self.timeout, self.max_retries, self.retry_backoff,
            )
        except TRANSIENT_ERRORS as e:
            attempts = self.max_retries + 1
            raise InjectionError(f"injection failed after {attempts} attempts: {e}") from e


@dataclass(frozen=True)
class InjectionRun:
    pairs: tuple[tuple[Document, InjectionResponse], ...]
    failed: int   # client errors after retry budget, or unparseable output
    skipped: int  # inputs no rule/client could corrupt


def inject_corpus(
    docs: Sequence[Document],
    client: InjectorClient,
    concurrency: int,
) -> InjectionRun:
    """Render, complete, and parse every document; results follow input order."""
    check_concurrency(concurrency)

    def one(doc: Document) -> InjectionResponse | str:
        try:
            return parse_response(client.complete(render_prompt(doc.text)))
        except SkipExample:
            return "skipped"
        except (InjectionError, ParseError):
            return "failed"

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            results = list(pool.map(one, docs))
    else:
        results = [one(doc) for doc in docs]
    return InjectionRun(
        pairs=tuple((doc, r) for doc, r in zip(docs, results) if isinstance(r, InjectionResponse)),
        failed=results.count("failed"),
        skipped=results.count("skipped"),
    )


@dataclass(frozen=True)
class FilterResult:
    kept: tuple[ECExample, ...]
    dropped_count: int


def roundtrip_filter(pairs: Sequence[tuple[Document, InjectionResponse]]) -> FilterResult:
    """Keep a pair only when the client's own correction equals the document's text.

    Comparison is byte equality after NFC (records normalize at
    construction). Kept pairs become synthetic EC examples with the
    document's id, whose target is the original clean text.
    """
    kept = tuple(
        ECExample(
            id=doc.id,
            source=resp.ungrammatical,
            target=doc.text,
            provenance="synthetic",
            error_annotations=resp.errors,
        )
        for doc, resp in pairs
        if resp.corrected == doc.text
    )
    return FilterResult(kept=kept, dropped_count=len(pairs) - len(kept))


@dataclass(frozen=True)
class ErrorStats:
    category_fractions: dict[str, float]
    errors_per_example: dict[int, float]


def error_stats(examples: Sequence[ECExample]) -> ErrorStats:
    """Fractions of annotation categories and of per-example error counts.

    Each histogram sums to 1 over the annotated examples.
    """
    annotated = [ex.error_annotations for ex in examples if ex.error_annotations]
    categories = Counter(a.category for annotations in annotated for a in annotations)
    sizes = Counter(map(len, annotated))
    total = sum(categories.values())
    return ErrorStats(
        category_fractions={c: k / total for c, k in sorted(categories.items())},
        errors_per_example={n: k / len(annotated) for n, k in sorted(sizes.items())},
    )
