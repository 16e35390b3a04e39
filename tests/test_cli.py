from __future__ import annotations

import argparse
import contextlib
import dataclasses
import inspect
import json
import math
import os
import re
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Iterator, get_origin, get_type_hints

import numpy as np
import pytest

from ecsynth import cli as cli_mod
from ecsynth import cluster, evaluate, grammar, mix, records, reweight, scoring, simbench, typo, util
from ecsynth.cli import (
    STAGE_ORDER,
    ConfigError,
    EvalSection,
    PathsConfig,
    PipelineConfig,
    _section_types,
    build_parser,
    load_config,
    main,
    run_pipeline,
)
from ecsynth.demo import DEMO_CONFIG, materialize
from ecsynth.evaluate import NormalizedJudge
from ecsynth.records import ECExample, read_clusters, read_outputs
from ecsynth.util import file_sha256


@pytest.fixture(scope="module")
def demo_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("demo")
    materialize(out)
    return out


def _write_config(path: Path, **overrides) -> Path:
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg.update(overrides)
    config_path = path / "config.json"
    config_path.write_text(json.dumps(cfg), encoding="utf-8")
    return config_path


def test_load_config_rejects_unknown_top_level_key(demo_dir, tmp_path):
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg["tuning"] = {}
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError, match="tuning"):
        load_config(p)


def test_load_config_rejects_unknown_section_key(tmp_path):
    # reweight.lambda's field is named lam, but only its config key loads
    for section, key in (("cluster", "n_clusters"), ("reweight", "lam")):
        cfg = json.loads(json.dumps(DEMO_CONFIG))
        cfg[section][key] = 10
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        with pytest.raises(ConfigError, match=rf"unknown keys \['{key}'\]"):
            load_config(p)


def test_load_config_requires_seed_and_paths(tmp_path):
    p = tmp_path / "config.json"
    p.write_text(json.dumps({"paths": DEMO_CONFIG["paths"]}), encoding="utf-8")
    with pytest.raises(ConfigError, match="seed"):
        load_config(p)
    p.write_text(json.dumps({"seed": 1}), encoding="utf-8")
    with pytest.raises(ConfigError, match="paths"):
        load_config(p)


def test_invalid_config_exits_1_before_any_work(demo_dir, tmp_path):
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg["grammar"]["failure_rat"] = 0.4
    p = demo_dir / "bad_config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["run", "--config", str(p)])
    assert rc == 1
    assert not (demo_dir / "artifacts").exists()


@pytest.mark.parametrize(
    "key, value",
    [
        ("cluster.k", "50"),
        ("sample.per_cluster", 2.5),
        ("grammar.failure_rate", "0.4"),
        ("mix.filter_threshold", None),
        ("cluster.max_iters", True),
        ("seed", 1.5),
        # an http judge whose prompt lacks the {candidate} and {target} placeholders
        ("eval", {"judge": "http", "judge_endpoint": "http://127.0.0.1:9/judge"}),
        # one whose prompt has a placeholder besides them
        ("eval", {
            "judge": "http", "judge_endpoint": "http://127.0.0.1:9/judge",
            "judge_prompt": "Is {candidate} the same as {target}? Answer {yes} or {no}.",
        }),
    ],
)
def test_mistyped_config_value_exits_1_before_any_work(tmp_path, key, value):
    materialize(tmp_path)
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    *sections, name = key.split(".")
    target = cfg[sections[0]] if sections else cfg
    target[name] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError, match=key):
        load_config(p)
    assert main(["run", "--config", str(p)]) == 1
    assert not (tmp_path / "artifacts").exists()


@pytest.mark.parametrize(
    "key, value, match",
    [
        ("reweight.c_min", 2.0, "c_min < c_max"),
        ("mix.ratio", [0, 4], "ratio"),
        ("typo.p_omit", 1.5, "rates"),
        ("cluster.k", 0, "k must be positive"),
        ("cluster.embed_dim", 4, "dim must be >= 8"),
        ("cluster.max_iters", 0, "max_iters must be positive"),
        ("cluster.tol", -1, "tol must be >= 0"),
        ("sample.per_cluster", 0, "docs_per_cluster must be positive"),
        ("simbench.n_metrics", 0, "at least 1 metric"),
        ("simbench.noise_sigma", -1, "noise_sigma must be >= 0"),
        ("simbench.n_models", 1, "at least 2 models"),
        ("scoring.order", 0, "order must be in"),
        ("scoring.order", 6, "order must be in"),
        ("scoring.delta", 0, "delta must be > 0"),
        ("simbench.top3_rescue", -1, "top3_rescue must be in"),
        ("simbench.top3_rescue", 2, "top3_rescue must be in"),
        ("grammar.failure_rate", 1.5, "failure_rate must be in"),
        ("grammar.concurrency", 0, "concurrency must be >= 1"),
        ("grammar.timeout", -1, "timeout must be > 0"),
        ("grammar.max_retries", -1, "max_retries must be >= 0"),
        ("reweight.restarts", 0, "restarts must be >= 1"),
        ("reweight.max_iters", 0, "max_iters must be >= 1"),
        ("reweight.grad_tol", -1, "grad_tol must be >= 0"),
        ("reweight.c_min", 1.5, "target mean weight 1.0 must lie inside"),
        ("reweight.c_max", 0.9, "target mean weight 1.0 must lie inside"),
        ("paths.corpus", "", "paths.corpus must not be empty"),
        ("paths.domain_corpus", "", "paths.domain_corpus must not be empty"),
        ("paths.original_dataset", "", "paths.original_dataset must not be empty"),
        ("reweight.lambda", math.inf, "reweight.lambda: expected a finite number"),
        ("reweight.lambda", math.nan, "reweight.lambda: expected a finite number"),
        ("reweight.c_max", math.inf, "reweight.c_max: expected a finite number"),
        ("reweight.grad_tol", math.inf, "reweight.grad_tol: expected a finite number"),
        ("reweight.grad_tol", math.nan, "reweight.grad_tol: expected a finite number"),
        ("simbench.noise_sigma", math.inf, "simbench.noise_sigma: expected a finite number"),
        ("scoring.delta", math.inf, "scoring.delta: expected a finite number"),
        pytest.param(
            "simbench.noise_sigma", 10**400, "simbench.noise_sigma: expected a finite number",
            id="simbench.noise_sigma-10**400",
        ),
        # main runs only once load_config has rejected the value, so no stage
        # ever starts with one of these (a pool of 10**400 threads, say)
        *(
            pytest.param(key, value, f"{key}: expected an int64", id=f"{key}-{name}")
            for key in ("reweight.restarts", "sample.per_cluster", "grammar.concurrency", "cluster.k")
            for value, name in ((10**400, "10**400"), (2**63, "2**63"))
        ),
        pytest.param(
            "grammar.max_retries", -(2**63) - 1, "grammar.max_retries: expected an int64",
            id="grammar.max_retries--2**63-1",
        ),
    ],
)
def test_out_of_range_config_value_exits_1_before_any_work(tmp_path, key, value, match):
    materialize(tmp_path)
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    section, name = key.split(".")
    cfg[section][name] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    with pytest.raises(ConfigError, match=match):
        load_config(p)
    assert main(["run", "--config", str(p)]) == 1
    assert not (tmp_path / "artifacts").exists()


def _boundary_cases() -> list[tuple[str, object]]:
    """(config key, value): the boundary values of each section field's type but its default."""
    cases = []
    for section, cls in _section_types().items():
        hints = get_type_hints(cls)
        for f in dataclasses.fields(cls):
            tp = hints[f.name]
            if tp is int:
                values = [0, -1]
            elif tp is float:
                values = [0, -1, math.nan, math.inf]
            elif get_origin(tp) is tuple:
                values = [[]]
            else:  # str or Literal
                values = [""]
            key = f"{section}.{f.metadata.get('key', f.name)}"
            cases += [(key, v) for v in values if v != f.default]
    return cases


_BOUNDARY_CASES = _boundary_cases()


@pytest.mark.parametrize(
    "key, value", _BOUNDARY_CASES, ids=[f"{k}={json.dumps(v)}" for k, v in _BOUNDARY_CASES]
)
def test_config_boundary_value_exits_1_before_any_work_or_runs(tmp_path, key, value):
    materialize(tmp_path)
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    section, name = key.split(".")
    cfg[section][name] = value
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    before = sorted(tmp_path.iterdir())
    rc = main(["run", "--config", str(p)])
    assert rc in (0, 1)
    if rc == 1:
        assert sorted(tmp_path.iterdir()) == before
    else:
        workdir = tmp_path / cfg["paths"]["workdir"]
        assert (workdir / "runlog" / "evaluate.json").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["simbench", "--c-min", "3.0"],
        ["mix", "--ratio", "0:4"],
        ["inject-typos", "--p-omit", "1.5"],
        ["mix", "--total", "0"],
    ],
)
def test_stage_subcommand_rejects_out_of_range_flag(tmp_path, capsys, argv):
    dataset = tmp_path / "ec.jsonl"
    records.write_ec_dataset([ECExample(id="e1", source="teh cat", target="the cat")], dataset)
    records.write_scores([records.ScoredSample("e1", s_p=-4.0, s_f=-3.0)], tmp_path / "scores.jsonl")
    files = {
        "simbench": ["--dataset", str(dataset), "--scores", str(tmp_path / "scores.jsonl"),
                     "--outputs", str(tmp_path / "outputs"),
                     "--eval-matrix", str(tmp_path / "m.jsonl"),
                     "--planted", str(tmp_path / "planted.json")],
        "mix": ["--original", str(dataset), "--synthetic", str(dataset),
                "--out", str(tmp_path / "mix.jsonl")],
        "inject-typos": ["--dataset", str(dataset), "--out", str(tmp_path / "typos.jsonl")],
    }[argv[0]]
    assert main(argv + files) == 1
    assert "error:" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ec.jsonl", "scores.jsonl"]


def _subcommands() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_stage_flag_defaults_are_config_defaults():
    defaults = PipelineConfig(seed=0, paths=PathsConfig("c", "d", "o", "w"))
    subcommands = _subcommands()
    for stage in STAGE_ORDER:
        # section-field flags are stored under "<section>.<field>"
        fields = [a for a in subcommands[stage]._actions if "." in a.dest]
        assert fields, stage
        for action in fields:
            section, name = action.dest.split(".")
            expected = getattr(getattr(defaults, section), name)
            assert action.default == expected, (stage, action.option_strings)
    options = {
        stage: {o: a.default for a in subcommands[stage]._actions for o in a.option_strings}
        for stage in STAGE_ORDER
    }
    assert options["inject-grammar"]["--failure-rate"] == 0.4
    assert options["cluster"]["--max-iters"] == 50
    assert options["fit-reweight"]["--max-iters"] == 500
    assert options["fit-reweight"]["--grad-tol"] == 1e-8
    assert "--cv" not in options["fit-reweight"]


# The module objects each stage builds or calls with its config fields as arguments.
STAGE_OBJECTS = {
    "cluster": (cluster.hash_embed, cluster.kmeans),
    "sample": (cluster.quota_sample,),
    "inject-grammar": (grammar.MockInjector, grammar.HttpInjector, grammar.inject_corpus),
    "inject-typos": (typo.TypoConfig,),
    "score": (scoring.train_ngram,),
    "simbench": (simbench.DeploymentSimSpec,),
    "fit-reweight": (reweight.ReweightParams, reweight.FitOptions),
    "filter": (mix.filter_by_weight,),
    "mix": (mix.MixSpec,),
    "plan": (mix.continue_plan,),
    "evaluate": (evaluate.ExternalJudge,),
}
# config field -> the module parameter it sets, where the names differ
RENAMED = {
    "cluster.embed_dim": "dim",
    "sample.per_cluster": "docs_per_cluster",
    "typo.max_errors": "max_errors_per_example",
    "mix.filter_threshold": "threshold",
}
# config defaults that differ from their module parameter's on purpose
DIFFERENT_DEFAULTS = {
    # a bare MockInjector is a clean mock; the pipeline's mock fails 40% of its
    # self-corrections so that the roundtrip filter has pairs to drop
    "grammar.failure_rate",
}


def test_config_defaults_equal_the_module_defaults():
    assert set(STAGE_OBJECTS) == set(STAGE_ORDER)
    compared, differ = 0, set()
    for stage in cli_mod.STAGES:
        for section, f, _ in cli_mod._flag_fields(stage):
            name = f"{section}.{f.name}"
            for obj in STAGE_OBJECTS[stage.name]:
                param = inspect.signature(obj).parameters.get(RENAMED.get(name, f.name))
                if param is None or param.default is inspect.Parameter.empty:
                    continue
                compared += 1
                if param.default != f.default:
                    differ.add(name)
    assert compared
    assert differ == DIFFERENT_DEFAULTS


def test_default_config_hash_is_pinned():
    config = PipelineConfig(seed=0, paths=PathsConfig("", "", "", ""))
    assert cli_mod.config_hash(dataclasses.asdict(config)) == (
        "3561b597c1d479a89b894c39e7d3b3fad4d2e3ea149bd2dbc3249ff88459e85c"
    )


@pytest.mark.parametrize("seed, all_flags", [(1234, False), (101, True)])
def test_stage_subcommands_reproduce_a_run(tmp_path, seed, all_flags):
    """The 11 subcommands, given each stage's seed and files, write the run's artifacts.

    A config field's flag is passed when its value differs from the field's
    default, or always with `all_flags`.
    """
    config_path = materialize(tmp_path)
    config_path.write_text(json.dumps({**DEMO_CONFIG, "seed": seed}), encoding="utf-8")
    config = load_config(config_path)
    workdir = run_pipeline(config, config_dir=tmp_path)
    # a sibling workdir, so the manifest's relative paths are the run's
    ctx = cli_mod.RunContext(config, tmp_path, tmp_path / "subcommands", "", judge=None)
    ctx.workdir.mkdir()
    subcommands = _subcommands()
    for stage in cli_mod.STAGES:
        flags = {a.dest: a.option_strings[0] for a in subcommands[stage.name]._actions}
        argv = [stage.name, "--seed", str(ctx.stage_seed(stage.name))]
        for slot in stage.slots:
            files = ctx.resolve(slot)
            if files is not None:
                argv += [flags[slot.name], *map(str, files if isinstance(files, list) else [files])]
        for section, f, _ in cli_mod._flag_fields(stage):
            value = getattr(getattr(config, section), f.name)
            if all_flags or value != f.default:
                text = ":".join(map(str, value)) if isinstance(value, tuple) else str(value)
                argv += [flags[f"{section}.{f.name}"], text]
        assert main(argv) == 0, argv

    def artifacts(root: Path) -> dict[str, str]:
        paths = (p for p in sorted(root.rglob("*")) if p.is_file())
        return {str(p.relative_to(root)): file_sha256(p) for p in paths if p.parent.name != "runlog"}

    expected = artifacts(workdir)
    assert len(expected) == 25
    assert artifacts(ctx.workdir) == expected


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_command_help_exits_0(command, capsys):
    with pytest.raises(SystemExit) as exit_info:
        main([command, "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["cluster", "--k", "5.5"],
        ["mix", "--ratio", "1:2:3"],
        ["plan", "--strategy", "Cont"],
        ["simbench", "--c-max", "inf"],
        ["simbench", "--noise-sigma", "nan"],
    ],
)
def test_stage_subcommand_rejects_mistyped_flag(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 2
    assert f"argument {argv[1]}:" in capsys.readouterr().err


def test_unknown_stage_rejected(demo_dir):
    config = load_config(demo_dir / "config.json")
    with pytest.raises(ConfigError, match="unknown stages"):
        run_pipeline(config, config_dir=demo_dir, stages=["clusterize"])


def test_stage_failure_exit_code(tmp_path):
    # corpus path that does not exist -> first stage fails -> exit 2
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg["paths"]["corpus"] = "nope.jsonl"
    p = tmp_path / "config.json"
    p.write_text(json.dumps(cfg), encoding="utf-8")
    rc = main(["run", "--config", str(p)])
    assert rc == 2


@pytest.fixture(scope="module")
def configured_demo(tmp_path_factory) -> Path:
    """A demo directory after a clean run of a config that sets every configured input.

    The layout is the built-in QWERTY's, and the imported scores are a default run's.
    """
    out = tmp_path_factory.mktemp("configured")
    materialize(out)
    workdir = run_pipeline(load_config(out / "config.json"), config_dir=out)
    (out / "imported.jsonl").write_bytes((workdir / "scores.jsonl").read_bytes())
    records._write_records(
        out / "qwerty.jsonl",
        ({"char": c, "neighbors": sorted(n)} for c, n in sorted(typo.QWERTY.adjacency.items())),
    )
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg["typo"]["layout"], cfg["scoring"]["import_scores"] = "qwerty.jsonl", "imported.jsonl"
    (out / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    run_pipeline(load_config(out / "config.json"), config_dir=out)
    return out


def _tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


# each configured input, and the first stage that reads it
@pytest.mark.parametrize(
    "key, stage",
    [
        ("paths.corpus", "cluster"),
        ("paths.domain_corpus", "score"),
        ("paths.original_dataset", "mix"),
        ("typo.layout", "inject-typos"),
        ("scoring.import_scores", "score"),
    ],
)
def test_a_bad_configured_input_fails_before_the_workdir_changes(
    configured_demo, tmp_path, capsys, key, stage
):
    cfg = json.loads((configured_demo / "config.json").read_text(encoding="utf-8"))
    for section in ("paths", "typo", "scoring"):
        for name, value in cfg[section].items():
            if isinstance(value, str) and value.endswith(".jsonl"):
                cfg[section][name] = str(configured_demo / value)
    if key == "paths.domain_corpus":
        cfg["scoring"]["import_scores"] = ""  # imported scores leave the corpora unread
    section, name = key.split(".")
    good = Path(cfg[section][name])
    bad = tmp_path / good.name
    bad.write_bytes(good.read_bytes() + b'{"id": "bad"\n')
    cfg[section][name] = str(bad)
    line = len(good.read_bytes().splitlines()) + 1
    said = f"stage {stage!r} failed: {bad}: malformed record on line {line}"
    workdir = configured_demo / "artifacts"
    before = _tree_bytes(workdir)
    for where in ("artifacts", str(workdir)):  # a fresh workdir, then the clean run's
        cfg["paths"]["workdir"] = where
        p = tmp_path / "config.json"
        p.write_text(json.dumps(cfg), encoding="utf-8")
        assert main(["run", "--config", str(p)]) == 2
        assert said in capsys.readouterr().err
    assert not (tmp_path / "artifacts").exists()
    assert _tree_bytes(workdir) == before


def test_imported_scores_leave_the_corpora_unread(configured_demo, tmp_path, capsys):
    # the configured run imports its scores, so a malformed domain corpus is never parsed
    cfg = json.loads((configured_demo / "config.json").read_text(encoding="utf-8"))
    bad = tmp_path / "domain.jsonl"
    bad.write_bytes(b'{"id": "bad"\n')
    for section in ("paths", "typo", "scoring"):
        for name, value in cfg[section].items():
            if isinstance(value, str) and value.endswith(".jsonl"):
                cfg[section][name] = str(configured_demo / value)
    cfg["paths"]["domain_corpus"], cfg["paths"]["workdir"] = str(bad), "artifacts"
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg), encoding="utf-8")
    assert main(["run", "--config", str(config)]) == 0
    log = json.loads((tmp_path / "artifacts" / "runlog" / "score.json").read_text(encoding="utf-8"))
    assert sorted(log["inputs"]) == ["ec_synth.jsonl", "imported.jsonl"]
    want = (configured_demo / "artifacts" / "scores.jsonl").read_bytes()
    assert (tmp_path / "artifacts" / "scores.jsonl").read_bytes() == want
    # the stage subcommand, given both corpora and the import
    out = tmp_path / "scores.jsonl"
    argv = [
        "score", "--dataset", str(configured_demo / "artifacts" / "ec_synth.jsonl"),
        "--import", cfg["scoring"]["import_scores"], "--public-corpus", str(bad),
        "--domain-corpus", str(bad), "--out", str(out),
    ]
    capsys.readouterr()
    assert main(argv) == 0
    assert out.read_bytes() == want


# (argv, the demo config's edits or the config file's text, exit code, message);
# "{config}" and "{tmp}" in argv are the config file and the test's directory
_EXIT_CASES = {
    "http grammar client without an endpoint": (
        ["run", "--config", "{config}"], {"grammar": {"client": "http"}}, 1,
        "grammar.client http requires grammar.endpoint",
    ),
    "http judge without an endpoint": (
        ["run", "--config", "{config}"], {"eval": {"judge": "http"}}, 1,
        "eval.judge http requires eval.judge_endpoint",
    ),
    "a section that is not an object": (
        ["run", "--config", "{config}"], {"cluster": [50]}, 1, "section 'cluster' must be an object",
    ),
    "a config that is not valid JSON": (["run", "--config", "{config}"], "{seed: 1", 1, "not valid JSON"),
    "a config that is not a JSON object": (
        ["run", "--config", "{config}"], "[1234]", 1, "config must be a JSON object",
    ),
    "imported scores and no domain corpus": (
        ["run", "--config", "{config}", "--stages", "cluster"],
        {"scoring": {"import_scores": "scores.jsonl"}, "paths": {"domain_corpus": ""}}, 0,
        "pipeline complete",
    ),
    "stats without a flag": (["stats"], None, 1, "stats requires --dataset and/or --clusters"),
    "cluster without corpus or embeddings": (
        ["cluster", "--out", "{tmp}/clusters.jsonl"], None, 1, "cluster requires --embeddings or --corpus",
    ),
    "evaluate in a fresh workdir": (
        ["run", "--config", "{config}", "--stages", "evaluate"], {}, 2, "no files match",
    ),
}


@pytest.mark.parametrize("case", sorted(_EXIT_CASES))
def test_cli_exit_code_and_message(tmp_path, capsys, case):
    argv, config, code, message = _EXIT_CASES[case]
    materialize(tmp_path)
    path = tmp_path / "config.json"
    if isinstance(config, str):
        path.write_text(config, encoding="utf-8")
    elif config is not None:
        cfg = json.loads(json.dumps(DEMO_CONFIG))
        for section, values in config.items():
            cfg[section] = {**cfg[section], **values} if isinstance(values, dict) else values
        path.write_text(json.dumps(cfg), encoding="utf-8")
    assert main([a.format(config=path, tmp=tmp_path) for a in argv]) == code
    out, err = capsys.readouterr()
    assert message in (out if code == 0 else err)


def test_cluster_and_sample_subcommands(demo_dir, tmp_path):
    clusters = tmp_path / "clusters.jsonl"
    rc = main(
        [
            "cluster",
            "--corpus", str(demo_dir / "demo_corpus.jsonl"),
            "--embed-dim", "32",
            "--k", "10",
            "--seed", "3",
            "--out", str(clusters),
        ]
    )
    assert rc == 0
    model = read_clusters(clusters)
    assert model.k == 10
    assert int(model.sizes.sum()) == 2000

    sampled = tmp_path / "sampled.jsonl"
    rc = main(
        [
            "sample",
            "--clusters", str(clusters),
            "--corpus", str(demo_dir / "demo_corpus.jsonl"),
            "--per-cluster", "5",
            "--seed", "4",
            "--out", str(sampled),
        ]
    )
    assert rc == 0
    assert len(records.read_corpus(sampled)) == sum(min(5, s) for s in model.sizes)


def test_cluster_from_embeddings_equals_cluster_from_corpus_and_stats_reads_it(
    demo_dir, tmp_path, capsys
):
    corpus = demo_dir / "demo_corpus.jsonl"
    embeddings = tmp_path / "embeddings.jsonl"
    records.write_embeddings(cluster.hash_embed(records.read_corpus(corpus), 32, seed=11), embeddings)
    common = ["--k", "10", "--seed", "11"]
    assert main(["cluster", "--embeddings", str(embeddings), *common,
                 "--out", str(tmp_path / "from_embeddings.jsonl")]) == 0
    assert main(["cluster", "--corpus", str(corpus), "--embed-dim", "32", *common,
                 "--out", str(tmp_path / "from_corpus.jsonl")]) == 0
    assert (tmp_path / "from_embeddings.jsonl").read_bytes() == (tmp_path / "from_corpus.jsonl").read_bytes()

    capsys.readouterr()
    assert main(["stats", "--clusters", str(tmp_path / "from_embeddings.jsonl")]) == 0
    assert re.search(r"^clusters: k=10 mean=200\.0 std=\d+\.\d$", capsys.readouterr().out, re.MULTILINE)


def test_sample_subcommand_names_documents_missing_from_corpus(demo_dir, tmp_path, capsys):
    corpus = records.read_corpus(demo_dir / "demo_corpus.jsonl")
    clusters = tmp_path / "clusters.jsonl"
    assert main(
        ["cluster", "--corpus", str(demo_dir / "demo_corpus.jsonl"), "--k", "4",
         "--out", str(clusters)]
    ) == 0
    kept = tmp_path / "kept.jsonl"
    records.write_corpus(corpus[1:], kept)  # the clusters still name corpus[0]
    rc = main(
        ["sample", "--clusters", str(clusters), "--corpus", str(kept),
         "--per-cluster", "2000", "--out", str(tmp_path / "sampled.jsonl")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing" in err and corpus[0].id in err


def test_fit_reweight_weighted_names_dataset_ids_without_weights(tmp_path, capsys):
    assert main(["planted", "--n", "60", "--k", "4", "--seed", "2",
                 "--out-prefix", str(tmp_path / "bench")]) == 0
    scored = records.read_scores(tmp_path / "bench_scores.jsonl")
    dataset = tmp_path / "ec.jsonl"
    records.write_ec_dataset(
        [ECExample(id=s.sample_id, source="teh cat", target="the cat") for s in scored[:3]]
        + [ECExample(id="not-scored", source="teh dog", target="the dog")],
        dataset,
    )
    rc = main(
        ["fit-reweight", "--eval-matrix", str(tmp_path / "bench_matrix0.jsonl"),
         "--scores", str(tmp_path / "bench_scores.jsonl"), "--restarts", "2",
         "--dataset", str(dataset), "--weighted", str(tmp_path / "weighted.jsonl"),
         "--report", str(tmp_path / "fit.json")]
    )
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing" in err and "not-scored" in err


def test_stage_that_cannot_make_a_requested_output_writes_none(tmp_path, capsys):
    bench = tmp_path / "bench"
    assert main(["planted", "--n", "60", "--k", "4", "--seed", "2", "--out-prefix", str(bench / "b")]) == 0
    out = tmp_path / "out"
    out.mkdir()
    # --weighted needs --dataset, which is not given; --report alone could be made
    rc = main(
        ["fit-reweight", "--eval-matrix", str(bench / "b_matrix0.jsonl"),
         "--scores", str(bench / "b_scores.jsonl"), "--restarts", "2",
         "--report", str(out / "r.json"), "--weighted", str(out / "w.jsonl")]
    )
    assert rc == 1
    assert "--weighted needs an input that was not given" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_layout_file_of_the_built_in_qwerty_reproduces_the_default_typos(tmp_path):
    layout = tmp_path / "qwerty.jsonl"
    records._write_records(
        layout, ({"char": c, "neighbors": sorted(n)} for c, n in sorted(typo.QWERTY.adjacency.items()))
    )
    cfg = json.loads(json.dumps(DEMO_CONFIG))
    cfg["typo"]["layout"] = layout.name
    materialize(tmp_path)
    (tmp_path / "config.json").write_text(json.dumps(cfg), encoding="utf-8")
    stages = ["cluster", "sample", "inject-grammar", "inject-typos"]
    workdir = run_pipeline(load_config(tmp_path / "config.json"), config_dir=tmp_path, stages=stages)
    golden = json.loads((Path(__file__).parent / "goldens" / "golden_hashes.json").read_text(encoding="utf-8"))
    assert file_sha256(workdir / "ec_synth.jsonl") == golden["ec_synth.jsonl"]
    log = json.loads((workdir / "runlog" / "inject-typos.json").read_text(encoding="utf-8"))
    assert log["inputs"]["qwerty.jsonl"] == file_sha256(layout)


def test_score_subcommand_refuses_a_repeated_sample_id(demo_dir, tmp_path, capsys):
    dataset = tmp_path / "d.jsonl"
    records.write_ec_dataset(
        [ECExample(id="a", source="teh cat", target="the cat"),
         ECExample(id="a", source="teh dog", target="the dog")],
        dataset,
    )
    out = tmp_path / "s.jsonl"
    rc = main(["score", "--dataset", str(dataset),
               "--public-corpus", str(demo_dir / "demo_corpus.jsonl"),
               "--domain-corpus", str(demo_dir / "demo_domain.jsonl"), "--out", str(out)])
    assert rc == 1
    assert "duplicate sample id 'a'" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / ".s.jsonl.tmp").exists()


def test_simbench_subcommand_keeps_the_files_of_its_outputs_dir(tmp_path):
    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, config_dir=tmp_path, stages=STAGE_ORDER[:5])
    outputs = tmp_path / "outputs"
    outputs.mkdir()
    (outputs / "keep.jsonl").write_text("", encoding="utf-8")
    assert main(["simbench", "--dataset", str(workdir / "ec_synth.jsonl"),
                 "--scores", str(workdir / "scores.jsonl"), "--outputs", str(outputs),
                 "--eval-matrix", str(tmp_path / "m.jsonl"),
                 "--planted", str(tmp_path / "planted.json")]) == 0
    assert (outputs / "keep.jsonl").exists()
    assert len(list(outputs.glob("*.jsonl"))) == 1 + config.simbench.n_models


def test_plan_subcommand_names_missing_dataset(tmp_path, capsys):
    mixed = tmp_path / "mix.jsonl"
    records.write_ec_dataset([ECExample(id="e1", source="teh cat", target="the cat")], mixed)
    missing = tmp_path / "nope.jsonl"
    out = tmp_path / "manifest.json"
    rc = main(["plan", "--strategy", "ContMix", "--synthetic", str(missing),
               "--mix", str(mixed), "--out", str(out)])
    assert rc == 1
    assert str(missing) in capsys.readouterr().err
    assert not out.exists()


def test_inject_score_filter_mix_plan_subcommands(demo_dir, tmp_path):
    ec = tmp_path / "ec.jsonl"
    rc = main(
        [
            "inject-grammar",
            "--corpus", str(demo_dir / "demo_corpus.jsonl"),
            "--client", "mock",
            "--failure-rate", "0.2",
            "--seed", "5",
            "--out", str(ec),
        ]
    )
    assert rc == 0
    examples = records.read_ec_dataset(ec)
    assert examples

    typod = tmp_path / "ec_typos.jsonl"
    rc = main(
        ["inject-typos", "--dataset", str(ec), "--seed", "6", "--out", str(typod)]
    )
    assert rc == 0
    assert len(records.read_ec_dataset(typod)) == len(examples)

    scores = tmp_path / "scores.jsonl"
    rc = main(
        [
            "score",
            "--dataset", str(typod),
            "--public-corpus", str(demo_dir / "demo_corpus.jsonl"),
            "--domain-corpus", str(demo_dir / "demo_domain.jsonl"),
            "--order", "2",
            "--delta", "0.1",
            "--out", str(scores),
        ]
    )
    assert rc == 0
    assert len(records.read_scores(scores)) == len(examples)

    # score --import round trip
    reimported = tmp_path / "scores2.jsonl"
    rc = main(
        [
            "score",
            "--dataset", str(typod),
            "--import", str(scores),
            "--out", str(reimported),
        ]
    )
    assert rc == 0
    assert records.read_scores(reimported) == records.read_scores(scores)

    # weights + filter
    weights = {s.sample_id: (1.5 if i % 2 else 0.5) for i, s in enumerate(records.read_scores(scores))}
    weights_path = tmp_path / "weights.jsonl"
    records.write_weights(weights, weights_path)
    filtered = tmp_path / "filtered.jsonl"
    rc = main(
        [
            "filter",
            "--dataset", str(typod),
            "--weights", str(weights_path),
            "--threshold", "1.0",
            "--out", str(filtered),
        ]
    )
    assert rc == 0
    kept = records.read_ec_dataset(filtered)
    assert all(ex.weight >= 1.0 for ex in kept)

    mixed = tmp_path / "mixed.jsonl"
    rc = main(
        [
            "mix",
            "--original", str(demo_dir / "demo_original.jsonl"),
            "--synthetic", str(typod),
            "--ratio", "1:4",
            "--seed", "7",
            "--out", str(mixed),
        ]
    )
    assert rc == 0
    assert len(records.read_ec_dataset(mixed)) == 200 * 5

    manifest_path = tmp_path / "manifest.json"
    rc = main(
        [
            "plan",
            "--strategy", "ContMix",
            "--synthetic", str(typod),
            "--mix", str(mixed),
            "--out", str(manifest_path),
        ]
    )
    assert rc == 0
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    assert manifest["strategy"] == "ContMix"

    rc = main(["stats", "--dataset", str(typod)])
    assert rc == 0


def test_fit_reweight_and_simbench_subcommands(tmp_path):
    rc = main(
        [
            "planted",
            "--n", "120",
            "--k", "8",
            "--d", "2",
            "--noise", "0.001",
            "--seed", "3",
            "--out-prefix", str(tmp_path / "bench"),
        ]
    )
    assert rc == 0
    report = tmp_path / "fit.json"
    weights_out = tmp_path / "weights.jsonl"
    rc = main(
        [
            "fit-reweight",
            "--eval-matrix", str(tmp_path / "bench_matrix0.jsonl"),
            "--eval-matrix", str(tmp_path / "bench_matrix1.jsonl"),
            "--scores", str(tmp_path / "bench_scores.jsonl"),
            "--seed", "3",
            "--report", str(report),
            "--weights-out", str(weights_out),
        ]
    )
    assert rc == 0
    fit = json.loads(report.read_text(encoding="utf-8"))
    assert fit["containment_ok"]
    assert fit["residual_train"] <= fit["baselines"]["uniform"] + 1e-9
    w = records.read_weights(weights_out)
    assert all(0.01 < x < 2.0 for x in w.values())


def test_fit_report_txt_rows_match_json_report(tmp_path):
    assert main(["planted", "--n", "80", "--k", "4", "--seed", "5",
                 "--out-prefix", str(tmp_path / "bench")]) == 0
    report, report_txt = tmp_path / "fit.json", tmp_path / "fit.txt"
    rc = main(
        ["fit-reweight", "--eval-matrix", str(tmp_path / "bench_matrix0.jsonl"),
         "--val-matrix", str(tmp_path / "bench_matrix1.jsonl"),
         "--scores", str(tmp_path / "bench_scores.jsonl"), "--restarts", "2",
         "--report", str(report), "--report-txt", str(report_txt)]
    )
    assert rc == 0
    fit = json.loads(report.read_text(encoding="utf-8"))
    lines = report_txt.read_text(encoding="utf-8").splitlines()
    rows = {line.split()[0]: line.split() for line in lines if line}
    for label, key in (("crossval", "residual_cv"), ("val", "residual_val")):
        _, mean, plus_minus, std = rows[label]
        assert plus_minus == "±"
        assert float(mean) == pytest.approx(fit[key]["mean"], rel=1e-4)
        assert float(std) == pytest.approx(fit[key]["std"], rel=1e-2)


def test_evaluate_subcommand(tmp_path):
    dataset = [
        ECExample(id=f"s{i}", source=f"src {i}", target=f"Target {i}.") for i in range(10)
    ]
    ds_path = tmp_path / "dataset.jsonl"
    records.write_ec_dataset(dataset, ds_path)
    from ecsynth.records import ModelOutputs, write_outputs

    outputs = ModelOutputs(
        model_id="demo",
        candidates={
            ex.id: ((ex.target, "x", "y") if i < 7 else ("x", ex.target, "y"))
            for i, ex in enumerate(dataset)
        },
    )
    out_path = tmp_path / "demo_model.jsonl"
    write_outputs(outputs, out_path)
    report = tmp_path / "report.txt"
    rc = main(
        [
            "evaluate",
            "--outputs", str(out_path),
            "--dataset", str(ds_path),
            "--judge", "exact",
            "--k", "1", "3",
            "--report", str(report),
        ]
    )
    assert rc == 0
    text = report.read_text(encoding="utf-8")
    assert "Top-1" in text and "70.00" in text and "100.00" in text


@pytest.mark.parametrize("bad", ["NaN", "Infinity", "-3", "0", "true", '"1"'])
def test_evaluate_rejects_a_weight_that_is_not_a_finite_number_above_0(tmp_path, capsys, bad):
    dataset = [ECExample(id=f"s{i}", source=f"src {i}", target=f"Target {i}.") for i in range(3)]
    ds_path = tmp_path / "dataset.jsonl"
    records.write_ec_dataset(dataset, ds_path)
    out_path = tmp_path / "model.jsonl"
    records.write_outputs(
        records.ModelOutputs(model_id="model", candidates={ex.id: (ex.target,) for ex in dataset}),
        out_path,
    )
    weights = tmp_path / "weights.jsonl"
    weights.write_text(
        '{"sample_id": "s0", "weight": 1.0}\n'
        f'{{"sample_id": "s1", "weight": {bad}}}\n'
        '{"sample_id": "s2", "weight": 1.0}\n',
        encoding="utf-8",
    )
    report = tmp_path / "report.json"
    argv = ["evaluate", "--outputs", str(out_path), "--dataset", str(ds_path), "--judge", "exact"]
    rc = main(argv + ["--weights", str(weights), "--report-json", str(report)])
    assert rc == 1
    assert re.search(r"weights\.jsonl.*line 2", capsys.readouterr().err)
    assert not report.exists()


def test_every_writer_takes_value_and_path():
    writers = [write for _, write in cli_mod._record_io().values() if write is not None]
    assert writers
    for write in writers:
        params = list(inspect.signature(write).parameters)
        assert len(params) == 2 and params[1] == "path", (write.__name__, params)


def test_a_run_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency; a fresh interpreter, since the tests import scipy
    src = str(Path(cli_mod.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "import ecsynth.cli as cli\n"
        "from ecsynth.demo import materialize\n"
        "out = Path(sys.argv[1])\n"
        "cli.run_pipeline(cli.load_config(materialize(out)), config_dir=out)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code, str(tmp_path)], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "artifacts" / "eval_report.json").exists()


def test_run_stage_subset(demo_dir):
    config = load_config(demo_dir / "config.json")
    workdir = run_pipeline(config, config_dir=demo_dir, stages=["cluster", "sample"])
    assert (workdir / "clusters.jsonl").exists()
    assert (workdir / "sampled.jsonl").exists()
    assert not (workdir / "ec_grammar.jsonl").exists()
    assert (workdir / "runlog" / "cluster.json").exists()
    record = json.loads((workdir / "runlog" / "cluster.json").read_text(encoding="utf-8"))
    assert set(record) == {"stage", "seed", "config_hash", "inputs", "outputs", "counts"}
    counts = record["counts"]
    assert set(counts) == {
        "docs", "k", "objective", "mean_size", "std_size",
        "iterations", "converged", "repairs", "seed_candidates", "candidate_pairs",
    }
    # the demo's k-means converges inside its 50 iterations, with no empty cluster
    assert 1 < counts["iterations"] < 50 and counts["converged"] is True and counts["repairs"] == 0
    assert counts["seed_candidates"] > counts["k"]
    n, k = counts["docs"], counts["k"]
    assert n * k < counts["candidate_pairs"] < counts["iterations"] * n * k


def test_rerun_with_fewer_models_drops_stale_outputs(tmp_path):
    config = load_config(materialize(tmp_path))
    run_pipeline(config, config_dir=tmp_path)
    fewer = dataclasses.replace(config, simbench=dataclasses.replace(config.simbench, n_models=4))
    workdir = run_pipeline(fewer, config_dir=tmp_path, stages=["simbench", "evaluate"])
    assert len(list((workdir / "outputs").glob("*.jsonl"))) == 4
    runlog = workdir / "runlog"
    assert len(json.loads((runlog / "simbench.json").read_text(encoding="utf-8"))["outputs"]) == 6
    assert json.loads((runlog / "evaluate.json").read_text(encoding="utf-8"))["counts"]["models"] == 4


_JUDGE_PROMPT = "<candidate>{candidate}</candidate><target>{target}</target>"
_JUDGE_PROMPT_RE = re.compile(r"<candidate>(.*)</candidate><target>(.*)</target>\Z", re.DOTALL)


@contextlib.contextmanager
def _counting_judge_server(asked: list) -> Iterator[str]:
    """A local http judge that answers as NormalizedJudge and records each pair it is asked."""

    class Handler(BaseHTTPRequestHandler):
        def do_POST(self):
            prompt = json.loads(self.rfile.read(int(self.headers["Content-Length"])))["prompt"]
            pair = _JUDGE_PROMPT_RE.match(prompt).groups()
            asked.append(pair)
            verdict = "yes" if NormalizedJudge().judge(*pair) else "no"
            body = json.dumps({"text": verdict}).encode("utf-8")
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield f"http://127.0.0.1:{server.server_port}/judge"
    finally:
        server.shutdown()
        server.server_close()
        thread.join()


@pytest.mark.parametrize("kind", ["exact", "normalized", "http"])
def test_pipeline_judges_each_distinct_pair_once(tmp_path, monkeypatch, kind):
    # simbench and evaluate judge the same top-3 candidates; the run's one
    # MemoJudge asks the judge it wraps once per distinct (candidate, target)
    # pair, and an http judge makes one POST for each
    asked = []
    config = load_config(materialize(tmp_path))
    with contextlib.ExitStack() as stack:
        if kind == "http":
            endpoint = stack.enter_context(_counting_judge_server(asked))
            section = EvalSection(judge="http", judge_endpoint=endpoint, judge_prompt=_JUDGE_PROMPT)
        else:
            cls = {"exact": evaluate.ExactJudge, "normalized": NormalizedJudge}[kind]
            original = cls.judge

            def counting(self, candidate, target):
                asked.append((candidate, target))
                return original(self, candidate, target)

            monkeypatch.setattr(cls, "judge", counting)
            section = EvalSection(judge=kind)
        workdir = run_pipeline(dataclasses.replace(config, eval=section), config_dir=tmp_path)
    targets = {ex.id: ex.target for ex in records.read_ec_dataset(workdir / "ec_synth.jsonl")}
    pairs = set()
    for p in (workdir / "outputs").glob("*.jsonl"):
        for sid, candidates in read_outputs(p).candidates.items():
            pairs.update((c, targets[sid]) for c in candidates[:3])
    assert len(asked) == len(pairs)
    assert set(asked) == pairs


def test_every_file_of_a_run_goes_through_the_one_writer(tmp_path, monkeypatch):
    written = []
    original = records._write

    def spy(path, chunks):
        written.append(Path(path).resolve())
        original(path, chunks)

    monkeypatch.setattr(records, "_write", spy)
    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, config_dir=tmp_path).resolve()
    assert set(written) == {p for p in workdir.rglob("*") if p.is_file()}


@pytest.fixture
def parsed(monkeypatch) -> list[Path]:
    """The resolved path of each file `records._read_lines` parses, in call order."""
    paths: list[Path] = []
    original = records._read_lines

    def counting(path):
        paths.append(Path(path).resolve())
        return original(path)

    monkeypatch.setattr(records, "_read_lines", counting)
    return paths


def test_pipeline_parses_each_input_once_and_no_artifact_it_wrote(tmp_path, parsed):
    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, config_dir=tmp_path).resolve()
    # cluster, sample and score all read paths.corpus
    assert parsed.count((tmp_path / config.paths.corpus).resolve()) == 1
    assert len(parsed) == len(set(parsed))
    assert [p for p in parsed if p.is_relative_to(workdir)] == []


def _same(a: object, b: object) -> bool:
    """Equal in value and in type, through containers, records and arrays."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if dataclasses.is_dataclass(a):
        return all(_same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a))
    if isinstance(a, dict):
        a, b = list(a.items()), list(b.items())
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


READERS = {
    "read_corpus": records.read_corpus,
    "read_ec_dataset": records.read_ec_dataset,
    "read_scores": records.read_scores,
    "read_weights": records.read_weights,
    "read_eval_matrix": records.read_eval_matrix,
    "read_clusters": records.read_clusters,
    "read_outputs": read_outputs,
}


def test_pipeline_write_through_equals_a_fresh_parse(tmp_path, monkeypatch):
    # what the runner holds after a run, and would hand a later stage, is what
    # a fresh read of the file gives, equal in type too: a producer that
    # returned a numpy float, or a model not in its read form, would differ
    held = []
    original = cli_mod.RunContext.run

    def spy(self, stage):
        held.append(self.held)
        original(self, stage)

    monkeypatch.setattr(cli_mod.RunContext, "run", spy)
    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, config_dir=tmp_path).resolve()
    assert len(held) == len(STAGE_ORDER) and all(h is held[0] for h in held)
    artifacts = {p: v for p, v in held[0].values.items() if p.is_relative_to(workdir)}
    jsonl = sorted(workdir.rglob("*.jsonl"))
    assert sorted(p for p in artifacts if p.suffix == ".jsonl") == jsonl
    assert {f"read_{artifacts[p][0]}" for p in jsonl} == set(READERS)
    for path in jsonl:
        kind, value = artifacts[path]
        assert _same(value, READERS[f"read_{kind}"](path)), path


def test_pipeline_computes_one_digest_per_file(tmp_path, monkeypatch):
    hashed = []
    original = util.file_sha256

    def spy(path):
        hashed.append(Path(path).resolve())
        return original(path)

    monkeypatch.setattr(util, "file_sha256", spy)
    monkeypatch.setattr(cli_mod, "file_sha256", spy)
    config = load_config(materialize(tmp_path))
    workdir = run_pipeline(config, config_dir=tmp_path).resolve()
    paths = config.paths
    inputs = {(tmp_path / p).resolve() for p in (paths.corpus, paths.domain_corpus, paths.original_dataset)}
    # the run log names every other file's digest; its own files are not hashed
    artifacts = {p for p in workdir.rglob("*") if p.is_file() and p.parent.name != "runlog"}
    assert (len(inputs), len(artifacts)) == (3, 25)
    assert sorted(hashed) == sorted(inputs | artifacts)


def test_pipeline_reads_each_configured_input_once_as_one_snapshot(tmp_path, monkeypatch, parsed):
    config = load_config(materialize(tmp_path))
    corpus = (tmp_path / config.paths.corpus).resolve()
    original = cli_mod.cluster_mod.kmeans

    def edit_corpus_then_fit(*args, **kwargs):
        # cluster has read the corpus; sample, which reads it next, must get the same texts
        objs = [json.loads(line) for line in corpus.read_text(encoding="utf-8").splitlines()]
        edited = [{**o, "text": o["text"] + " (edited)"} for o in objs]
        corpus.write_text("".join(json.dumps(o) + "\n" for o in edited), encoding="utf-8")
        return original(*args, **kwargs)

    monkeypatch.setattr(cli_mod.cluster_mod, "kmeans", edit_corpus_then_fit)
    workdir = run_pipeline(config, config_dir=tmp_path, stages=["cluster", "sample"])
    assert parsed.count(corpus) == 1
    assert all(d.text.endswith(" (edited)") for d in records.read_corpus(corpus))
    sampled = records.read_corpus(workdir / "sampled.jsonl")
    assert sampled and not any(d.text.endswith(" (edited)") for d in sampled)


def test_stage_order_constant_complete():
    assert STAGE_ORDER == (
        "cluster",
        "sample",
        "inject-grammar",
        "inject-typos",
        "score",
        "simbench",
        "fit-reweight",
        "filter",
        "mix",
        "plan",
        "evaluate",
    )
