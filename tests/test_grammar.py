from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from ecsynth.grammar import (
    ERROR_CATALOG,
    HttpInjector,
    InjectionError,
    MockInjector,
    ParseError,
    SkipExample,
    categorize_error_label,
    error_stats,
    extract_slot,
    inject_corpus,
    parse_response,
    render_prompt,
    roundtrip_filter,
)
from ecsynth import demo
from ecsynth.records import Document, ECExample, ErrorAnnotation

REFERENCE_OUTPUT = """**Ungrammatical sentences**: Yesterday I went to a store that have nice furnitures.
**Error 1: Subject-verb agreement error**: "have" should be "has" to agree with the singular subject "store".
**Error 2: Plurization error**: "furnitures" should be "furniture" as it is an uncountable noun.
**Corrected sentences**: Yesterday I went to a store that has nice furniture."""


# -- prompt rendering --


def test_prompt_contains_sentence_once_and_format_markers():
    sentence = "Yesterday I went to a store that has nice furniture."
    prompt = render_prompt(sentence)
    assert prompt.count(sentence) == 1
    assert "**Ungrammatical sentences**" in prompt
    assert "**Corrected sentences**" in prompt
    for item in ERROR_CATALOG:
        assert item in prompt


def test_prompt_escapes_marker_sequences():
    prompt = render_prompt("I like **bold** claims.")
    assert "**bold**" not in prompt
    assert extract_slot(prompt) == "I like **bold** claims."


def test_prompts_differ_only_in_sentence_slot():
    a, b = "First example sentence.", "Second one entirely."
    pa = render_prompt(a).replace(a, "{X}")
    pb = render_prompt(b).replace(b, "{X}")
    assert pa == pb


def test_injection_request_invariant():
    text = "A perfectly fine sentence."
    assert render_prompt(text).count(text) == 1


# -- response parsing --


def test_parse_reference_output():
    resp = parse_response(REFERENCE_OUTPUT)
    assert resp.ungrammatical == "Yesterday I went to a store that have nice furnitures."
    assert resp.corrected == "Yesterday I went to a store that has nice furniture."
    assert [e.category for e in resp.errors] == ["verb", "plural"]
    assert resp.raw == REFERENCE_OUTPUT


def test_parse_missing_corrected_section():
    raw = REFERENCE_OUTPUT.split("**Corrected")[0]
    with pytest.raises(ParseError, match="corrected"):
        parse_response(raw)


def test_parse_missing_ungrammatical_section():
    raw = "**Corrected sentences**: Fine.\n**Error 1: Spelling error**: x"
    with pytest.raises(ParseError, match="ungrammatical"):
        parse_response(raw)


def test_parse_zero_errors_rejected():
    raw = "**Ungrammatical sentences**: a b.\n**Corrected sentences**: a b."
    with pytest.raises(ParseError, match="errors"):
        parse_response(raw)


def test_error_label_mapping():
    assert categorize_error_label("Pluralization error") == "plural"
    assert categorize_error_label("Plurization error") == "plural"
    assert categorize_error_label("Subject-verb agreement error") == "verb"
    assert categorize_error_label("Verb tense error") == "verb"
    assert categorize_error_label("Missing word error") == "missing_word"
    assert categorize_error_label("Capitalization error") == "capitalization"
    assert categorize_error_label("Word order error") == "word_order"
    assert categorize_error_label("Article error") == "article"
    assert categorize_error_label("Preposition error") == "preposition"
    assert categorize_error_label("Spelling error") == "spelling"
    assert categorize_error_label("Something exotic") == "other"


# -- mock injector --


def test_mock_golden_output():
    mock = MockInjector(failure_rate=0.0, seed=5)
    resp = mock.inject("She has a cat.", seed=123)
    assert resp.raw == (
        "**Ungrammatical sentences**: She has cat.\n"
        '**Error 1: Missing word error**: the article "a" was dropped\n'
        "**Corrected sentences**: She has a cat."
    )
    assert [e.category for e in resp.errors] == ["missing_word"]


def test_mock_deterministic():
    mock = MockInjector(failure_rate=0.3, seed=9)
    a = mock.inject("The dogs are in the garden.", seed=77)
    b = mock.inject("The dogs are in the garden.", seed=77)
    assert a.raw == b.raw


def test_mock_zero_failure_rate_roundtrips():
    mock = MockInjector(failure_rate=0.0, seed=1)
    for i in range(50):
        resp = mock.inject("The students have a long ladder.", seed=i)
        assert resp.corrected == "The students have a long ladder."
        assert resp.ungrammatical != resp.corrected
        assert len(resp.errors) >= 1


def test_mock_untokenizable_skips():
    mock = MockInjector()
    with pytest.raises(SkipExample):
        mock.inject("Hi")


def test_mock_output_always_parses():
    mock = MockInjector(failure_rate=0.5, seed=2)
    sentences = [
        "She has a cat.",
        "The dogs are here.",
        "He was late.",
        "My parents have the tickets.",
        "the start is lowercase already",
        "Numbers 123 and things.",
    ]
    for s in sentences:
        for seed in range(20):
            try:
                resp = mock.inject(s, seed=seed)
            except SkipExample:
                continue
            assert parse_response(resp.raw).raw == resp.raw


def test_mock_annotates_only_the_errors_it_applied():
    # "the" is the last plural candidate; once toggled, no bare article is left to drop
    mock = MockInjector(failure_rate=0.0, seed=0)
    resp = mock.inject("It is the 1st", seed=6)
    assert resp.ungrammatical == "It is thes 1st"
    assert [e.description for e in resp.errors] == ["Pluralization error"]
    for seed in range(40):
        resp = mock.inject("It is the 1st", seed=seed)
        dropped = "the" not in resp.ungrammatical.split() and "thes" not in resp.ungrammatical
        assert dropped == ("Missing word error" in [e.description for e in resp.errors])


# a skipped document hashes as this marker; the edge sentences cover
# punctuation, escaped stars, case, NFC and both skip reasons
_SKIP_MARKER = b"<skip>"
_EDGE_SENTENCES = (
    "The cat sat on the mat.", "Is the dog here?", "the dogs are late",
    "A man, the dog, and a cat.", "He has **bold** cats.", "Hi", "hi yo",
    "Café owners were there.", "The buses pass by.", "Numbers 123 and 4th things.",
    "Wait... The dogs DO run!", "An apple; an orange: the end",
)


@pytest.mark.parametrize(
    "failure_rate, seed, digest",
    [
        (0.0, 11, "2bc4b58cf4614f6a41e8216b45125f6936bc127e236c4fe5a92e37d0a844da27"),
        (0.4, 29, "a543eaeae180c17a9f588739ba8e3b20e35668b800dc31e004ab95354eff1878"),
    ],
)
def test_mock_completions_are_pinned(failure_rate, seed, digest):
    mock = MockInjector(failure_rate=failure_rate, seed=seed)
    h = hashlib.sha256()
    for text in _EDGE_SENTENCES + tuple(d.text for d in demo.make_demo_corpus(20000, 3)):
        try:
            h.update(mock.complete(render_prompt(text)).encode())
        except SkipExample:
            h.update(_SKIP_MARKER)
        h.update(b"\0")
    assert h.hexdigest() == digest


def test_mock_through_prompt_interface():
    mock = MockInjector(failure_rate=0.0, seed=3)
    raw = mock.complete(render_prompt("She has a cat."))
    resp = parse_response(raw)
    assert resp.corrected == "She has a cat."
    assert raw == mock.inject("She has a cat.").raw


# -- roundtrip filtration --


def _resp(ungrammatical: str, corrected: str):
    raw = (
        f"**Ungrammatical sentences**: {ungrammatical}\n"
        "**Error 1: Spelling error**: synthetic\n"
        f"**Corrected sentences**: {corrected}"
    )
    return parse_response(raw)


def test_filter_keeps_exact_match():
    doc = Document(id="d0", text="Clean text.")
    result = roundtrip_filter([(doc, _resp("Cleann text.", "Clean text."))])
    assert result.dropped_count == 0
    ex = result.kept[0]
    assert ex.source == "Cleann text."
    assert ex.target == "Clean text."
    assert ex.provenance == "synthetic"
    assert len(ex.error_annotations) == 1


def test_filter_drops_mismatch():
    doc = Document(id="d0", text="Clean text.")
    result = roundtrip_filter([(doc, _resp("Cleann text.", "Clean text"))])
    assert result.kept == ()
    assert result.dropped_count == 1


def test_filter_nfc_equivalence():
    composed = "café time."
    decomposed = "café time."
    result = roundtrip_filter([(Document(id="d0", text=composed), _resp("cfae time.", decomposed))])
    assert result.dropped_count == 0


def test_filter_uses_document_ids():
    doc = Document(id="doc-7", text="Clean text.")
    result = roundtrip_filter([(doc, _resp("Cleann text.", "Clean text."))])
    assert result.kept[0].id == "doc-7"


def test_filter_kept_fraction_tracks_failure_rate():
    mock = MockInjector(failure_rate=0.4, seed=31)
    docs = [
        Document(id=f"d{i}", text=f"The students have ladder number {i}.")
        for i in range(2000)
    ]
    run = inject_corpus(docs, mock, concurrency=1)
    assert run.failed == 0 and run.skipped == 0
    result = roundtrip_filter(list(run.pairs))
    kept_fraction = len(result.kept) / len(run.pairs)
    assert abs(kept_fraction - 0.6) < 0.03
    by_id = {d.id: d for d in docs}
    for ex in result.kept:
        assert ex.target == by_id[ex.id].text


# -- error statistics --


def test_error_stats_degenerate():
    examples = [
        ECExample(
            id=f"e{i}", source="s", target="t",
            error_annotations=(ErrorAnnotation(category="verb"),),
        )
        for i in range(10)
    ]
    stats = error_stats(examples)
    assert stats.category_fractions == {"verb": 1.0}
    assert stats.errors_per_example == {1: 1.0}


def test_error_stats_sum_to_one():
    mock = MockInjector(failure_rate=0.0, seed=4)
    docs = [Document(id=f"d{i}", text="The dogs are in the garden.") for i in range(500)]
    run = inject_corpus(docs, mock, concurrency=1)
    kept = roundtrip_filter(list(run.pairs)).kept
    stats = error_stats(kept)
    assert sum(stats.category_fractions.values()) == pytest.approx(1.0, abs=1e-9)
    assert sum(stats.errors_per_example.values()) == pytest.approx(1.0, abs=1e-9)


def test_error_stats_match_configured_mix():
    mock = MockInjector(failure_rate=0.0, seed=6)
    # all four rules apply to each of these sentences, and each example draws
    # 1 to 3 of them uniformly
    docs = [Document(id=f"d{i}", text=f"The dogs are in garden plot {i}.") for i in range(10000)]
    run = inject_corpus(docs, mock, concurrency=1)
    kept = roundtrip_filter(list(run.pairs)).kept
    assert len(kept) == len(docs)
    stats = error_stats(kept)
    assert set(stats.category_fractions) == {"verb", "plural", "missing_word", "capitalization"}
    for fraction in stats.category_fractions.values():
        assert abs(fraction - 1 / 4) < 0.01
    assert set(stats.errors_per_example) == {1, 2, 3}
    for fraction in stats.errors_per_example.values():
        assert abs(fraction - 1 / 3) < 0.01


# -- external client over a local server --


class _Handler(BaseHTTPRequestHandler):
    behavior = "ok"
    fail_next = 0
    calls = 0
    delay = 0.0

    def do_POST(self):
        cls = type(self)
        cls.calls += 1
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        if cls.delay:
            time.sleep(cls.delay)
        if cls.fail_next > 0:
            cls.fail_next -= 1
            self.send_response(500)
            self.end_headers()
            return
        clean = extract_slot(body["prompt"])
        mock = MockInjector(failure_rate=0.0, seed=8)
        text = mock.inject(clean).raw
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(json.dumps({"text": text}).encode("utf-8"))

    def log_message(self, *args):
        pass


@pytest.fixture()
def http_server():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    _Handler.fail_next = 0
    _Handler.calls = 0
    _Handler.delay = 0.0
    yield f"http://127.0.0.1:{server.server_port}"
    server.shutdown()


def test_http_injector_success(http_server):
    client = HttpInjector(endpoint=http_server, timeout=5.0)
    raw = client.complete(render_prompt("She has a cat."))
    resp = parse_response(raw)
    assert resp.corrected == "She has a cat."


def test_http_injector_retries_then_succeeds(http_server):
    _Handler.fail_next = 2
    client = HttpInjector(endpoint=http_server, timeout=5.0, max_retries=2, retry_backoff=0.01)
    raw = client.complete(render_prompt("She has a cat."))
    assert "Corrected sentences" in raw
    assert _Handler.calls == 3


def test_http_injector_budget_exhaustion(http_server):
    _Handler.fail_next = 10
    client = HttpInjector(endpoint=http_server, timeout=5.0, max_retries=1, retry_backoff=0.01)
    with pytest.raises(InjectionError, match="2 attempts"):
        client.complete(render_prompt("She has a cat."))
    assert _Handler.calls == 2


def test_http_injector_timeout(http_server):
    _Handler.delay = 1.0
    client = HttpInjector(endpoint=http_server, timeout=0.05, max_retries=0)
    start = time.time()
    with pytest.raises(InjectionError):
        client.complete(render_prompt("She has a cat."))
    assert time.time() - start < 0.9


@pytest.mark.parametrize(
    "kwargs, match", [({"timeout": 0.0}, "timeout must be > 0"), ({"max_retries": -1}, "max_retries")]
)
def test_http_injector_rejects_out_of_range_settings(kwargs, match):
    with pytest.raises(ValueError, match=match):
        HttpInjector(endpoint="http://127.0.0.1:9/inject", **kwargs)


def test_inject_corpus_counts_failures_not_silently(http_server):
    _Handler.fail_next = 100
    client = HttpInjector(endpoint=http_server, timeout=5.0, max_retries=0, retry_backoff=0.0)
    docs = [Document(id=f"d{i}", text="She has a cat.") for i in range(3)]
    run = inject_corpus(docs, client, concurrency=1)
    assert run.failed == 3
    assert run.pairs == ()


@pytest.mark.parametrize("concurrency", [1, 3])
def test_inject_corpus_counts_skipped_documents(concurrency):
    mock = MockInjector(failure_rate=0.0, seed=12)
    docs = [
        Document(id="one-word", text="Hello"),
        Document(id="kept", text="She has a cat."),
        Document(id="no-rule", text="hi yo"),
    ]
    run = inject_corpus(docs, mock, concurrency=concurrency)
    assert (run.skipped, run.failed) == (2, 0)
    assert [d.id for d, _ in run.pairs] == ["kept"]
    with pytest.raises(SkipExample, match="no corruption rule applies"):
        mock.inject("hi yo")


def test_inject_corpus_concurrency_preserves_order_and_results():
    mock = MockInjector(failure_rate=0.2, seed=10)
    docs = [
        Document(id=f"d{i}", text=f"The students have ladder number {i}.") for i in range(40)
    ]
    serial = inject_corpus(docs, mock, concurrency=1)
    parallel = inject_corpus(docs, mock, concurrency=8)
    assert [d.id for d, _ in serial.pairs] == [d.id for d, _ in parallel.pairs]
    assert [r.raw for _, r in serial.pairs] == [r.raw for _, r in parallel.pairs]
