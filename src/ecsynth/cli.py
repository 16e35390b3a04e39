"""Command-line entry point: the stage registry, the stage runner and the CLI.

Each of the 11 stages is declared once in `STAGES`: the config sections it
reads, its named input and output file slots with their record kinds, and one
body function from input records to output records plus the counts its
run-log record stores. One runner, `_run_stage`, reads and writes every
stage file, the keyboard layout included: it reads the input slots, calls
the body and writes what it returns. `ecsynth run` executes stages in
dependency order from one strict, type-checked JSON config, resolving the
slots to configured paths and workdir artifacts. It reads every configured
input before the first stage writes, hands each file's records on to later
stages without a parse, and logs each stage's seed, config hash,
input/output hashes and counts, so a rerun with the same config produces
byte-identical artifacts. `ecsynth <stage>` runs the same runner on the
files its `--<slot>` flags name; its other flags are generated from the
section dataclasses, so their defaults and types are the config's.

Exit codes: 0 success, 1 validation error, 2 stage failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import shutil
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any, Callable, Iterator, Literal, Sequence, get_args, get_origin, get_type_hints,
)

from . import cluster as cluster_mod
from . import demo as demo_mod
from . import evaluate as eval_mod
from . import grammar as grammar_mod
from . import mix as mix_mod
from . import records
from . import reweight as reweight_mod
from . import scoring as scoring_mod
from . import simbench as simbench_mod
from . import typo as typo_mod
from .util import config_hash, derive_seed, file_sha256

TOKEN_ENV_VAR = "ECSYNTH_TOKEN"


class ConfigError(ValueError):
    """Invalid pipeline configuration; reported before any stage runs."""


class StageError(RuntimeError):
    def __init__(self, stage: str, cause: Exception):
        self.stage = stage
        super().__init__(f"stage {stage!r} failed: {cause}")


# -- strict config schema --
#
# Field metadata: "key" is the field's config key when it differs from the
# field name (and then also its flag); "flag" is its stage-subcommand flag.
# A section that configures a module object builds it when it is constructed,
# or calls the module's own check where there is no such object, so the
# module's rules reject out-of-range values before any stage runs.


@dataclass(frozen=True)
class PathsConfig:
    corpus: str
    domain_corpus: str
    original_dataset: str
    workdir: str


@dataclass(frozen=True)
class ClusterSection:
    k: int = 50
    embed_dim: int = 64
    max_iters: int = 50
    tol: float = 1e-8

    def __post_init__(self) -> None:
        cluster_mod.check_embed_dim(self.embed_dim)
        cluster_mod.check_kmeans_args(self.k, self.max_iters, self.tol)


@dataclass(frozen=True)
class SampleSection:
    per_cluster: int = 10

    def __post_init__(self) -> None:
        cluster_mod.check_quota(self.per_cluster)


@dataclass(frozen=True)
class GrammarSection:
    client: Literal["mock", "http"] = "mock"
    failure_rate: float = 0.4
    concurrency: int = 1
    endpoint: str = ""
    timeout: float = grammar_mod.HttpInjector.timeout
    max_retries: int = grammar_mod.HttpInjector.max_retries

    def __post_init__(self) -> None:
        if self.client == "http" and not self.endpoint:
            raise ConfigError("grammar.client http requires grammar.endpoint")
        grammar_mod.check_failure_rate(self.failure_rate)
        grammar_mod.check_concurrency(self.concurrency)
        grammar_mod.check_timeout(self.timeout)
        grammar_mod.check_max_retries(self.max_retries)


@dataclass(frozen=True)
class TypoSection:
    p_transpose: float = typo_mod.TypoConfig.p_transpose
    p_omit: float = typo_mod.TypoConfig.p_omit
    p_repeat: float = typo_mod.TypoConfig.p_repeat
    p_spatial: float = typo_mod.TypoConfig.p_spatial
    max_errors: int = typo_mod.TypoConfig.max_errors_per_example
    layout: str = ""

    def __post_init__(self) -> None:
        self.build()

    def build(self, seed: int = 0) -> typo_mod.TypoConfig:
        return typo_mod.TypoConfig(
            p_transpose=self.p_transpose, p_omit=self.p_omit, p_repeat=self.p_repeat,
            p_spatial=self.p_spatial, max_errors_per_example=self.max_errors, seed=seed,
        )


@dataclass(frozen=True)
class ScoringSection:
    order: int = 3
    delta: float = 0.1
    import_scores: str = ""

    def __post_init__(self) -> None:
        scoring_mod.check_ngram_args(self.order, self.delta)


@dataclass(frozen=True)
class SimbenchSection:
    n_models: int = simbench_mod.DeploymentSimSpec.n_models
    n_metrics: int = simbench_mod.DeploymentSimSpec.n_metrics
    noise_sigma: float = simbench_mod.DeploymentSimSpec.noise_sigma
    top3_rescue: float = simbench_mod.DeploymentSimSpec.top3_rescue

    def __post_init__(self) -> None:
        simbench_mod.DeploymentSimSpec(**dataclasses.asdict(self))


@dataclass(frozen=True)
class ReweightSection:
    c_min: float = reweight_mod.ReweightParams.c_min
    c_max: float = reweight_mod.ReweightParams.c_max
    lam: float = field(default=reweight_mod.ReweightParams.lam, metadata={"key": "lambda"})
    restarts: int = reweight_mod.FitOptions.restarts
    max_iters: int = reweight_mod.FitOptions.max_iters
    grad_tol: float = reweight_mod.FitOptions.grad_tol

    def __post_init__(self) -> None:
        self.params()
        self.options()
        # the simbench stage calibrates its planted weights to mean 1
        reweight_mod.check_mean_weight(1.0, self.c_min, self.c_max)

    def params(self) -> reweight_mod.ReweightParams:
        return reweight_mod.ReweightParams(c_min=self.c_min, c_max=self.c_max, lam=self.lam)

    def options(self, seed: int = 0) -> reweight_mod.FitOptions:
        return reweight_mod.FitOptions(
            max_iters=self.max_iters, grad_tol=self.grad_tol, restarts=self.restarts, seed=seed
        )


@dataclass(frozen=True)
class MixSection:
    ratio: tuple[int, int] = mix_mod.MixSpec.ratio
    filter_threshold: float = field(default=1.0, metadata={"flag": "threshold"})

    def __post_init__(self) -> None:
        self.build()

    def build(self, seed: int = 0) -> mix_mod.MixSpec:
        return mix_mod.MixSpec(ratio=self.ratio, seed=seed)


@dataclass(frozen=True)
class EvalSection:
    judge: Literal["exact", "normalized", "http"] = "normalized"
    judge_endpoint: str = ""
    judge_prompt: str = ""

    def __post_init__(self) -> None:
        if self.judge == "http" and not self.judge_endpoint:
            raise ConfigError("eval.judge http requires eval.judge_endpoint")
        if self.judge == "http":
            eval_mod.check_prompt_template(self.judge_prompt)


@dataclass(frozen=True)
class PlanSection:
    strategy: Literal[mix_mod.STRATEGIES] = "ContMixFil"


@dataclass(frozen=True)
class PipelineConfig:
    seed: int
    paths: PathsConfig
    cluster: ClusterSection = field(default_factory=ClusterSection)
    sample: SampleSection = field(default_factory=SampleSection)
    grammar: GrammarSection = field(default_factory=GrammarSection)
    typo: TypoSection = field(default_factory=TypoSection)
    scoring: ScoringSection = field(default_factory=ScoringSection)
    simbench: SimbenchSection = field(default_factory=SimbenchSection)
    reweight: ReweightSection = field(default_factory=ReweightSection)
    mix: MixSection = field(default_factory=MixSection)
    eval: EvalSection = field(default_factory=EvalSection)
    plan: PlanSection = field(default_factory=PlanSection)


def _type_name(tp: Any) -> str:
    return str(tp) if get_origin(tp) else tp.__name__


def _typed(tp: Any, value: object) -> object:
    """`value` checked against the field annotation `tp`; TypeError if it does not fit.

    A bool is never accepted as a number, nor NaN, an infinity or an int
    beyond float64 as a float, nor an int beyond int64 as an int. An int is
    accepted where a float is declared and kept as it is, so a config's hash
    does not change with loading. A fixed-length tuple field takes a list of
    that length.
    """
    origin = get_origin(tp)
    if origin is Literal:
        if value in get_args(tp):
            return value
        raise TypeError(f"expected one of {list(get_args(tp))}, got {value!r}")
    if origin is tuple:
        args = get_args(tp)
        if isinstance(value, (list, tuple)) and len(value) == len(args):
            return tuple(_typed(a, v) for a, v in zip(args, value))
    elif isinstance(value, (int, float) if tp is float else tp) and not isinstance(value, bool):
        if tp is float and not abs(value) <= sys.float_info.max:
            raise TypeError(f"expected a finite number, got {value!r}")
        if tp is int and not -(2**63) <= value < 2**63:
            raise TypeError(f"expected an int64, got {value!r}")
        return value
    raise TypeError(f"expected {_type_name(tp)}, got {value!r}")


def _flag_type(tp: Any) -> Callable[[str], object]:
    """argparse `type=` for a field: parse the flag's text, then check it like a config value."""

    def parse(text: str) -> object:
        if get_origin(tp) is tuple:  # "1:4"
            return _typed(tp, [get_args(tp)[0](t) for t in text.split(":")])
        return _typed(tp, tp(text) if tp in (int, float) else text)

    parse.__name__ = _type_name(tp)
    return parse


def _section_types() -> dict[str, type]:
    return {name: tp for name, tp in get_type_hints(PipelineConfig).items() if name != "seed"}


def _config_keys(cls: type) -> dict[str, dataclasses.Field]:
    """Config key -> field: a field's key is its metadata "key", or else its name."""
    return {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}


def _load_section(name: str, cls: type, obj: object):
    if not isinstance(obj, dict):
        raise ConfigError(f"section {name!r} must be an object")
    fields = _config_keys(cls)
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"section {name!r}: unknown keys {unknown}")
    hints = get_type_hints(cls)
    values = {}
    for key, value in obj.items():
        f = fields[key]
        try:
            values[f.name] = _typed(hints[f.name], value)
        except TypeError as e:
            raise ConfigError(f"{name}.{key}: {e}") from e
    try:
        return cls(**values)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"section {name!r}: {e}") from e


def load_config(path: str | Path) -> PipelineConfig:
    """Parse and validate a pipeline config; any unknown key or mistyped value is an error."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            obj = json.load(f)
        except json.JSONDecodeError as e:
            raise ConfigError(f"{path}: not valid JSON: {e}") from e
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    types = _section_types()
    unknown = sorted(set(obj) - {"seed"} - set(types))
    if unknown:
        raise ConfigError(f"{path}: unknown top-level keys {unknown}")
    if "seed" not in obj:
        raise ConfigError(f"{path}: missing required key 'seed'")
    if "paths" not in obj:
        raise ConfigError(f"{path}: missing required section 'paths'")
    sections = {
        name: _load_section(name, cls, obj[name]) for name, cls in types.items() if name in obj
    }
    try:
        seed = _typed(int, obj["seed"])
    except TypeError as e:
        raise ConfigError(f"{path}: seed: {e}") from e
    config = PipelineConfig(seed=seed, **sections)
    # the pipeline's input files; stage subcommands take theirs from flags
    for name in ("corpus", "domain_corpus", "original_dataset"):
        if name == "domain_corpus" and config.scoring.import_scores:
            continue  # imported scores need no domain corpus
        if not getattr(config.paths, name):
            raise ConfigError(f"{path}: paths.{name} must not be empty")
    return config


# -- stage registry --


@dataclass(frozen=True)
class Slot:
    """A named file a stage reads or writes, and the kind of records it holds.

    The pipeline takes its path from `config`, a dotted config field holding a
    path relative to the config file (no file when the field is empty), or
    from `artifact`, a name in the workdir (for kind "files", a glob pattern
    that must match). A stage subcommand takes it from `--<flag or name>`.

    `record` is the kind of records in the file. The runner reads an input
    slot and passes the body its records, or None for an optional slot without
    a file. The runner writes what the body returns for an output slot.

    `unless` names another input slot of the stage. When that slot has a file,
    this one is not read, and the body gets None for it.
    """

    name: str
    artifact: str = ""
    config: str = ""
    # "file"; "files": a list of files, passed as a list of their records;
    # "dir": a directory, written from a {file name: records} dict;
    # "ref": a file the output names by its path but the stage does not read,
    # passed as that path relative to the directory of the stage's first output
    kind: str = "file"
    record: str = ""
    optional: bool = False
    flag: str = ""
    unless: str = ""


def _flag(slot: Slot) -> str:
    return "--" + (slot.flag or slot.name).replace("_", "-")


@dataclass(frozen=True)
class Stage:
    name: str
    help: str
    # body(config, seed, **inputs, **extras) -> (outputs, counts): it gets each
    # input slot's records (see Slot) and, if it reads the "eval" section,
    # judge=, one judge for the whole run. `outputs` maps an output slot's
    # name to its records. An optional output may be missing when the inputs
    # cannot make it; the runner writes only the outputs that have a path.
    body: Callable[..., tuple[dict, dict]]
    sections: tuple[str, ...]  # config sections ("cluster") or single fields ("mix.ratio") it reads
    inputs: tuple[Slot, ...]
    outputs: tuple[Slot, ...]
    # subcommand-only flags as argparse keywords; the pipeline passes their defaults
    extras: dict[str, dict] = field(default_factory=dict)

    @property
    def slots(self) -> tuple[Slot, ...]:
        return self.inputs + self.outputs

    @property
    def judged(self) -> bool:
        return "eval" in self.sections


def _judge(e: EvalSection) -> eval_mod.Judge:
    """The judge of one run or stage subcommand; it asks each distinct pair once."""
    if e.judge == "http":
        inner = eval_mod.ExternalJudge(
            endpoint=e.judge_endpoint,
            prompt_template=e.judge_prompt,
            token=os.environ.get(TOKEN_ENV_VAR, ""),
        )
    else:
        inner = {"exact": eval_mod.ExactJudge, "normalized": eval_mod.NormalizedJudge}[e.judge]()
    return eval_mod.MemoJudge(inner)


def _cluster(cfg: PipelineConfig, seed: int, *, corpus, embeddings) -> tuple[dict, dict]:
    c = cfg.cluster
    if embeddings is not None:
        embedded = embeddings
    elif corpus is not None:
        embedded = cluster_mod.hash_embed(corpus, c.embed_dim, seed=seed)
    else:
        raise ConfigError("cluster requires --embeddings or --corpus")
    model = cluster_mod.kmeans(embedded, k=c.k, seed=seed, max_iters=c.max_iters, tol=c.tol)
    stats = cluster_mod.cluster_stats(model)
    counts = {
        "docs": len(embedded),
        "k": model.k,
        "objective": model.objective,
        "mean_size": stats.mean_size,
        "std_size": stats.std_size,
        **model.fit_counts,
    }
    # the model as read_clusters reads it back: no history, no fit counts
    return {"out": dataclasses.replace(model, objective_history=(), fit_counts={})}, counts


def _sample(cfg: PipelineConfig, seed: int, *, clusters, corpus) -> tuple[dict, dict]:
    docs = {d.id: d for d in corpus}
    picked = cluster_mod.quota_sample(clusters, cfg.sample.per_cluster, seed=seed)
    sampled = records.by_id(picked, docs, "corpus documents")
    return {"out": sampled}, {"sampled": len(sampled)}


def _inject_grammar(cfg: PipelineConfig, seed: int, *, corpus) -> tuple[dict, dict]:
    g = cfg.grammar
    if g.client == "mock":
        client: grammar_mod.InjectorClient = grammar_mod.MockInjector(
            failure_rate=g.failure_rate, seed=seed
        )
    else:
        client = grammar_mod.HttpInjector(
            endpoint=g.endpoint,
            token=os.environ.get(TOKEN_ENV_VAR, ""),
            timeout=g.timeout,
            max_retries=g.max_retries,
        )
    run = grammar_mod.inject_corpus(corpus, client, concurrency=g.concurrency)
    result = grammar_mod.roundtrip_filter(list(run.pairs))
    return {"out": list(result.kept)}, {
        "injected": len(run.pairs),
        "kept": len(result.kept),
        "dropped": result.dropped_count,
        "failed": run.failed,
        "skipped": run.skipped,
    }


def _inject_typos(cfg: PipelineConfig, seed: int, *, dataset, layout) -> tuple[dict, dict]:
    keyboard = typo_mod.QWERTY if layout is None else layout
    corrupted = typo_mod.corrupt_dataset(dataset, cfg.typo.build(seed), keyboard)
    return {"out": corrupted}, {"examples": len(corrupted)}


def _score(
    cfg: PipelineConfig, seed: int, *, dataset, public_corpus, domain_corpus, import_scores
) -> tuple[dict, dict]:
    if import_scores is not None:
        imported = {s.sample_id: s for s in import_scores}
        scores = records.by_id([ex.id for ex in dataset], imported, "imported scores")
    elif public_corpus is not None and domain_corpus is not None:
        s = cfg.scoring
        public = scoring_mod.train_ngram(public_corpus, s.order, s.delta)
        domain = scoring_mod.train_ngram(domain_corpus, s.order, s.delta)
        scores = scoring_mod.score_dataset(dataset, public, domain)
    else:
        raise ConfigError("score requires --import or both --public-corpus and --domain-corpus")
    return {"out": scores}, {"scored": len(scores)}


def _simbench(cfg: PipelineConfig, seed: int, *, dataset, scores, judge) -> tuple[dict, dict]:
    spec = simbench_mod.DeploymentSimSpec(
        **dataclasses.asdict(cfg.simbench),
        c_min=cfg.reweight.c_min,
        c_max=cfg.reweight.c_max,
        seed=seed,
    )
    sim = simbench_mod.simulate_deployments(dataset, scores, spec, judge=judge)
    planted = {
        "theta": [sim.params.theta_f, sim.params.theta_p, sim.params.theta_b],
        "alpha_1": [float(x) for x in sim.alpha[0]],
        "alpha_0": [float(x) for x in sim.alpha[1]],
        "noise_floor": sim.noise_floor,
        "mean_weight": float(sim.weights.mean()),
    }
    outputs = {
        "outputs": {f"{o.model_id}.jsonl": o for o in sim.outputs},
        "eval_matrix": sim.matrix,
        "planted": planted,
    }
    return outputs, {"models": len(sim.outputs), "noise_floor": sim.noise_floor}


def _fit_report_text(report: dict) -> str:
    """fit_report.txt, rendered from `_fit_report_json`'s dict."""
    lines = ["reweighting fit report", ""]
    tf, tp, tb = report["theta"]
    lines.append(f"theta: (theta_f={tf:.6g}, theta_p={tp:.6g}, theta_b={tb:.6g})")
    lines.append(
        f"bounds: c_min={report['c_min']}, c_max={report['c_max']}, lambda={report['lambda']}"
    )
    for i, a in enumerate(report["regression"]):
        a1 = ", ".join(f"{x:.6g}" for x in a["alpha_1"])
        a0 = ", ".join(f"{x:.6g}" for x in a["alpha_0"])
        flag = " (degenerate)" if a["degenerate"] else ""
        lines.append(f"alpha set {i}: alpha_1=[{a1}] alpha_0=[{a0}]{flag}")
    lines.append(f"mean weight: {report['mean_weight']:.6f}")
    lines.append("")
    lines.append(f"{'residual':<10}{'w=1':>14}{'heuristic':>14}{'fitted':>14}")
    b = report["baselines"]
    lines.append(
        f"{'train':<10}{b['uniform']:>14.4e}{b['heuristic']:>14.4e}"
        f"{report['residual_train']:>14.4e}"
    )
    for label, key in (("crossval", "residual_cv"), ("val", "residual_val")):
        if key in report:
            r = report[key]
            lines.append(f"{label:<10}{'':>14}{'':>14}{r['mean']:>10.4e} ± {r['std']:.2e}")
    lines.append("")
    lines.append(f"containment (fitted <= uniform + 1e-9): {report['containment_ok']}")
    lines.append("")
    lines.append(f"{'restart':<10}{'objective':>14}{'iterations':>12}  converged")
    for r in report["restarts"]:
        objective = "diverged" if r["objective"] is None else f"{r['objective']:.6e}"
        lines.append(f"{r['kind']:<10}{objective:>14}{r['iterations']:>12}  {r['converged']}")
    return "\n".join(lines) + "\n"


def _eval_report_text(report: dict) -> str:
    """eval_report.txt: `eval_report`'s dict as a grid of mean±std percentages."""
    width = max([len(row["label"]) for row in report["rows"]] + [8])
    lines = [" " * width + "  " + "  ".join(f"{c:>14}" for c in report["columns"])]
    for row in report["rows"]:
        body = "  ".join(f"{m * 100:7.2f}±{s * 100:5.2f}" for m, s in row["cells"])
        lines.append(f"{row['label']:<{width}}  {body}")
    return "\n".join(lines) + "\n"


def _fit_report_json(fit: reweight_mod.ReweightFit) -> dict:
    out = {
        "theta": [fit.params.theta_f, fit.params.theta_p, fit.params.theta_b],
        "c_min": fit.params.c_min,
        "c_max": fit.params.c_max,
        "lambda": fit.params.lam,
        "regression": [
            {
                "alpha_1": [float(x) for x in a.alpha_1],
                "alpha_0": [float(x) for x in a.alpha_0],
                "degenerate": a.degenerate,
            }
            for a in fit.regression
        ],
        "objective_train": fit.objective_train,
        "residual_train": fit.residual_train,
        "mean_weight": fit.mean_weight,
        "baselines": fit.baseline_residuals,
        "containment_ok": fit.containment_ok,
        "restarts": [
            {
                "kind": r.kind,
                "theta": list(r.theta),
                # null for a start that never evaluated finite
                "objective": r.objective if math.isfinite(r.objective) else None,
                "iterations": r.iterations,
                "converged": r.converged,
            }
            for r in fit.restarts
        ],
    }
    for key, r in (("residual_cv", fit.residual_cv), ("residual_val", fit.residual_val)):
        if r is not None:
            out[key] = {"per_holdout": list(r.per_holdout), "mean": r.mean, "std": r.std}
    return out


def _fit_reweight(
    cfg: PipelineConfig, seed: int, *, eval_matrix, val_matrix, scores, dataset
) -> tuple[dict, dict]:
    r = cfg.reweight
    fit = reweight_mod.fit(
        eval_matrix,
        scores,
        init=r.params(),
        opts=r.options(seed),
        val_data=val_matrix,
        with_cv=eval_matrix[0].n_models >= 3,
    )
    report = _fit_report_json(fit)
    weights = reweight_mod.weights_for(fit.params, scores)
    outputs = {"report": report, "report_txt": _fit_report_text(report), "weights_out": weights}
    if dataset is not None:
        outputs["weighted"] = _with_weights(dataset, weights)
    return outputs, {
        "residual_train": fit.residual_train,
        "uniform": fit.baseline_residuals["uniform"],
        "heuristic": fit.baseline_residuals["heuristic"],
        "mean_weight": fit.mean_weight,
    }


def _with_weights(examples: list[records.ECExample], weights: dict[str, float]) -> list:
    ws = records.by_id([ex.id for ex in examples], weights, "weights")
    return [ex.with_weight(w) for ex, w in zip(examples, ws)]


def _filter(cfg: PipelineConfig, seed: int, *, dataset, weights) -> tuple[dict, dict]:
    examples = dataset if weights is None else _with_weights(dataset, weights)
    threshold = cfg.mix.filter_threshold
    kept = mix_mod.filter_by_weight(examples, threshold)
    return {"out": kept}, {
        "input": len(examples),
        "kept": len(kept),
        "threshold": threshold,
        "retained_fraction": len(kept) / len(examples) if examples else 0.0,
    }


def _mix(
    cfg: PipelineConfig, seed: int, *, original, synthetic, filtered, total
) -> tuple[dict, dict]:
    spec = cfg.mix.build(seed)
    outputs = {"out": mix_mod.mix_datasets(original, synthetic, spec, total=total)}
    if filtered is not None:
        outputs["mix_filtered"] = mix_mod.mix_datasets(original, filtered, spec, total=total)
    return outputs, {"original": len(original), "ratio": list(cfg.mix.ratio)}


def _plan(cfg: PipelineConfig, seed: int, **datasets) -> tuple[dict, dict]:
    # the slots are the manifest's dataset keys; their paths are relative to the
    # manifest, so a workdir's manifest is byte-identical wherever it lives
    paths = {key: p for key, p in datasets.items() if p is not None}
    manifest = mix_mod.continue_plan(cfg.plan.strategy, paths)
    # key order is the manifest's own, so text, not json, which sorts keys
    return {"out": json.dumps(manifest, indent=2) + "\n"}, {
        "strategy": cfg.plan.strategy, "phases": len(manifest["phases"]),
    }


def _evaluate(
    cfg: PipelineConfig, seed: int, *, outputs, dataset, weights, k, judge
) -> tuple[dict, dict]:
    groups = [(o.model_id, [o]) for o in outputs]
    result = eval_mod.eval_report(groups, dataset, judge, weights=weights, ks=tuple(k))
    return {"report": _eval_report_text(result), "report_json": result}, {
        "models": len(groups), "samples": len(dataset),
    }


STAGES = (
    Stage(
        "cluster", "k-means over document embeddings", _cluster, ("cluster",),
        inputs=(
            Slot("corpus", config="paths.corpus", record="corpus", optional=True),
            Slot("embeddings", record="embeddings", optional=True),
        ),
        outputs=(Slot("out", "clusters.jsonl", record="clusters"),),
    ),
    Stage(
        "sample", "fixed quota per cluster", _sample, ("sample",),
        inputs=(
            Slot("clusters", "clusters.jsonl", record="clusters"),
            Slot("corpus", config="paths.corpus", record="corpus"),
        ),
        outputs=(Slot("out", "sampled.jsonl", record="corpus"),),
    ),
    Stage(
        "inject-grammar", "grammar-error injection with roundtrip filtration",
        _inject_grammar, ("grammar",),
        inputs=(Slot("corpus", "sampled.jsonl", record="corpus"),),
        outputs=(Slot("out", "ec_grammar.jsonl", record="ec_dataset"),),
    ),
    Stage(
        "inject-typos", "simulated mobile typing errors", _inject_typos, ("typo",),
        inputs=(
            Slot("dataset", "ec_grammar.jsonl", record="ec_dataset"),
            Slot("layout", config="typo.layout", record="layout", optional=True),
        ),
        outputs=(Slot("out", "ec_synth.jsonl", record="ec_dataset"),),
    ),
    Stage(
        "score", "dual average log-likelihood scores per target", _score, ("scoring",),
        inputs=(
            Slot("dataset", "ec_synth.jsonl", record="ec_dataset"),
            Slot(
                "public_corpus", config="paths.corpus", record="corpus", optional=True,
                unless="import_scores",
            ),
            Slot(
                "domain_corpus", config="paths.domain_corpus", record="corpus", optional=True,
                unless="import_scores",
            ),
            Slot(
                "import_scores", config="scoring.import_scores", record="scores",
                optional=True, flag="import",
            ),
        ),
        outputs=(Slot("out", "scores.jsonl", record="scores"),),
    ),
    Stage(
        "simbench", "simulated deployments: model outputs, measurements, live metrics",
        _simbench, ("simbench", "reweight.c_min", "reweight.c_max", "eval"),
        inputs=(
            Slot("dataset", "ec_synth.jsonl", record="ec_dataset"),
            Slot("scores", "scores.jsonl", record="scores"),
        ),
        outputs=(
            Slot("outputs", "outputs", kind="dir", record="outputs"),
            Slot("eval_matrix", "eval_matrix.jsonl", record="eval_matrix"),
            Slot("planted", "planted.json", record="json"),
        ),
    ),
    Stage(
        "fit-reweight", "fit the reweighting model to live metrics", _fit_reweight, ("reweight",),
        inputs=(
            Slot("eval_matrix", "eval_matrix.jsonl", kind="files", record="eval_matrix"),
            Slot("val_matrix", kind="files", record="eval_matrix", optional=True),
            Slot("scores", "scores.jsonl", record="scores"),
            Slot("dataset", "ec_synth.jsonl", record="ec_dataset", optional=True),
        ),
        outputs=(
            Slot("report", "fit_report.json", record="json"),
            Slot("report_txt", "fit_report.txt", record="text", optional=True),
            Slot("weights_out", "weights.jsonl", record="weights", optional=True),
            Slot("weighted", "ec_weighted.jsonl", record="ec_dataset", optional=True),
        ),
    ),
    Stage(
        "filter", "keep samples at or above a weight threshold", _filter,
        ("mix.filter_threshold",),
        inputs=(
            Slot("dataset", "ec_weighted.jsonl", record="ec_dataset"),
            Slot("weights", record="weights", optional=True),
        ),
        outputs=(Slot("out", "ec_filtered.jsonl", record="ec_dataset"),),
    ),
    Stage(
        "mix", "interleave original and synthetic data at a ratio", _mix, ("mix.ratio",),
        inputs=(
            Slot("original", config="paths.original_dataset", record="ec_dataset"),
            Slot("synthetic", "ec_weighted.jsonl", record="ec_dataset"),
            Slot("filtered", "ec_filtered.jsonl", record="ec_dataset", optional=True),
        ),
        outputs=(
            Slot("out", "mix.jsonl", record="ec_dataset"),
            Slot("mix_filtered", "mix_filtered.jsonl", record="ec_dataset", optional=True),
        ),
        extras={"total": {"type": int, "default": None}},
    ),
    Stage(
        "plan", "emit a continue-training manifest", _plan, ("plan",),
        inputs=(
            Slot("synthetic", "ec_synth.jsonl", kind="ref"),
            Slot("original", config="paths.original_dataset", kind="ref", optional=True),
            Slot("mix", "mix.jsonl", kind="ref", optional=True),
            Slot("mix_filtered", "mix_filtered.jsonl", kind="ref", optional=True),
        ),
        outputs=(Slot("out", "manifest.json", record="text"),),
    ),
    Stage(
        "evaluate", "sequence accuracy / good-ratio report", _evaluate, ("eval",),
        inputs=(
            Slot("outputs", "outputs/*.jsonl", kind="files", record="outputs"),
            Slot("dataset", "ec_synth.jsonl", record="ec_dataset"),
            Slot("weights", "weights.jsonl", record="weights", optional=True),
        ),
        outputs=(
            Slot("report", "eval_report.txt", record="text", optional=True),
            Slot("report_json", "eval_report.json", record="json", optional=True),
        ),
        extras={"k": {"type": int, "nargs": "+", "default": [1, 3]}},
    ),
)

STAGE_ORDER = tuple(s.name for s in STAGES)


# -- stage runner --


def _record_io() -> dict[str, tuple[Callable | None, Callable | None]]:
    """Each record kind's (reader, writer) in `records`.

    Looked up at each call, so that a wrapper installed on a reader or writer
    sees the stages' calls.
    """
    return {
        "corpus": (records.read_corpus, records.write_corpus),
        "ec_dataset": (records.read_ec_dataset, records.write_ec_dataset),
        "scores": (records.read_scores, records.write_scores),
        "weights": (records.read_weights, records.write_weights),
        "eval_matrix": (records.read_eval_matrix, records.write_eval_matrix),
        "clusters": (records.read_clusters, records.write_clusters),
        "outputs": (records.read_outputs, records.write_outputs),
        "embeddings": (records.read_embeddings, None),
        "layout": (records.read_layout, None),
        "json": (None, records.write_json),
        "text": (None, records.write_text),
    }


@dataclass
class Held:
    """The files one run or one stage subcommand has read or written, by resolved path.

    `values` keeps each file's record kind and records, so a later stage gets
    them without a parse. `digests` keeps each file's sha256, computed once:
    when the file is written or first read.
    """

    values: dict[Path, tuple[str, object]] = field(default_factory=dict)
    digests: dict[Path, str] = field(default_factory=dict)

    def digest(self, path: Path) -> str:
        key = path.resolve()
        if key not in self.digests:
            self.digests[key] = file_sha256(path)
        return self.digests[key]

    def read(self, record: str, path: Path) -> object:
        key = path.resolve()
        kind, value = self.values.get(key, ("", None))
        if kind != record:
            value = _record_io()[record][0](path)
            self.values[key] = (record, value)
            self.digest(path)
        return value

    def write(self, record: str, path: Path, value: object) -> None:
        _record_io()[record][1](value, path)
        key = path.resolve()
        self.values[key] = (record, value)
        self.digests[key] = file_sha256(path)


def _input(slot: Slot, path: Any, held: Held, base: Path | None) -> object:
    """What the body gets for an input slot at `path` (see Slot).

    `base` is the path of the stage's first output, which a ref is relative to.
    """
    if path is None:
        return None
    if slot.kind == "ref":
        if not path.exists():
            raise FileNotFoundError(f"{slot.name} file not found: {path}")
        return os.path.relpath(path, base.parent)
    if slot.kind == "files":
        return [held.read(slot.record, p) for p in path]
    return held.read(slot.record, path)


def _unneeded(slot: Slot, paths: dict[str, Any]) -> bool:
    """Whether the slot goes unread because its `unless` slot has a file."""
    return bool(slot.unless) and paths.get(slot.unless) is not None


def _run_stage(
    stage: Stage, config: PipelineConfig, seed: int, paths: dict[str, Any], held: Held,
    extras: dict,
) -> dict:
    """Run one stage on the files `paths` names by slot; returns the body's counts.

    The only code that reads or writes a stage's files: it reads the input
    slots through `held`, calls the body, and writes through `held` what the
    body returns for each output slot that has a path. It checks every such
    slot before the first write, so a stage that cannot make one writes none.
    """
    base = paths[stage.outputs[0].name]
    inputs = {
        slot.name: _input(slot, None if _unneeded(slot, paths) else paths[slot.name], held, base)
        for slot in stage.inputs
    }
    outputs, counts = stage.body(config, seed, **inputs, **extras)
    wanted = [slot for slot in stage.outputs if paths[slot.name] is not None]
    for slot in wanted:
        if outputs.get(slot.name) is None:
            raise ConfigError(f"{stage.name}: {_flag(slot)} needs an input that was not given")
    for slot in wanted:
        path, value = paths[slot.name], outputs[slot.name]
        if slot.kind == "dir":
            path.mkdir(parents=True, exist_ok=True)
            for name, item in value.items():
                held.write(slot.record, path / name, item)
        else:
            held.write(slot.record, path, value)
    return counts


# -- pipeline runner --


@dataclass
class RunContext:
    config: PipelineConfig
    config_dir: Path
    workdir: Path
    cfg_hash: str
    judge: eval_mod.Judge  # shared by every judged stage, so each pair is judged once per run
    held: Held = field(default_factory=Held)  # every file the run read or wrote

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.config.seed, stage)

    def resolve(self, slot: Slot) -> Path | list[Path] | None:
        if slot.config:
            section, name = slot.config.split(".")
            configured = getattr(getattr(self.config, section), name)
            # relative to the config file; an absolute path replaces config_dir
            return self.config_dir / configured if configured else None
        if not slot.artifact:
            return None
        if slot.kind == "files":
            found = sorted(self.workdir.glob(slot.artifact))
            if not found:
                raise FileNotFoundError(f"no files match {self.workdir / slot.artifact}")
            return found
        return self.workdir / slot.artifact

    def read_configured(self, stage: Stage) -> None:
        """Read each configured input file the stage reads into `held`, where its run finds it."""
        paths = {s.name: self.resolve(s) for s in stage.inputs if s.config and s.kind != "ref"}
        for slot in stage.inputs:
            path = paths.get(slot.name)
            if path is not None and not _unneeded(slot, paths):
                self.held.read(slot.record, path)

    def run(self, stage: Stage) -> None:
        """Run one stage on its configured files and artifacts, and log it."""
        self.workdir.mkdir(parents=True, exist_ok=True)
        paths = {slot.name: self.resolve(slot) for slot in stage.slots}
        for slot in stage.outputs:
            if slot.kind == "dir" and paths[slot.name].exists():
                # evaluate and the run log must not pick up an earlier run's files
                shutil.rmtree(paths[slot.name])
        extras = {name: kw["default"] for name, kw in stage.extras.items()}
        if stage.judged:
            extras["judge"] = self.judge
        counts = _run_stage(stage, self.config, self.stage_seed(stage.name), paths, self.held, extras)
        record = {
            "stage": stage.name,
            "seed": self.stage_seed(stage.name),
            "config_hash": self.cfg_hash,
            "inputs": self._digests([s for s in stage.inputs if not _unneeded(s, paths)], paths),
            "outputs": self._digests(stage.outputs, paths),
            "counts": counts,
        }
        logdir = self.workdir / "runlog"
        logdir.mkdir(parents=True, exist_ok=True)
        records.write_json(record, logdir / f"{stage.name}.json")

    def _digests(self, slots: Sequence[Slot], paths: dict[str, Any]) -> dict[str, str]:
        """File name -> sha256 of each file of `slots` that a run-log record names."""
        out = {}
        for slot in slots:
            value = paths[slot.name]
            if slot.kind == "dir":
                value = sorted(p for p in value.iterdir() if p.is_file())
            if value is not None and slot.kind != "ref":
                for p in value if isinstance(value, list) else [value]:
                    out[p.name] = self.held.digest(p)
        return out


def run_pipeline(
    config: PipelineConfig,
    config_dir: str | Path = ".",
    stages: Sequence[str] | None = None,
) -> Path:
    """Execute the requested stages in dependency order; returns the workdir.

    The run reads every configured input of those stages before the first
    one runs, so a bad one fails, as the first stage to read it, before the
    workdir changes. It hands each stage's records to the stages after it: a
    stage parses only the files that no earlier stage of this call read or
    wrote. Every stage of the run so sees one snapshot of each input.
    """
    unknown = sorted(set(stages or ()) - set(STAGE_ORDER))
    if unknown:
        raise ConfigError(f"unknown stages: {unknown}")
    config_dir = Path(config_dir)
    workdir = config_dir / config.paths.workdir
    cfg_hash = config_hash(dataclasses.asdict(config))
    ctx = RunContext(
        config=config, config_dir=config_dir, workdir=workdir, cfg_hash=cfg_hash,
        judge=_judge(config.eval),
    )
    selected = [stage for stage in STAGES if stages is None or stage.name in stages]
    for step in (ctx.read_configured, ctx.run):
        for stage in selected:
            try:
                step(stage)
            except Exception as e:
                raise StageError(stage.name, e) from e
    return workdir


# -- subcommands --


def _flag_fields(stage: Stage) -> Iterator[tuple[str, dataclasses.Field, Any]]:
    """(section, field, annotation) of each config field the stage reads, except slot paths."""
    sourced = {s.config for s in stage.slots}
    types = _section_types()
    for entry in stage.sections:
        section, _, only = entry.partition(".")
        hints = get_type_hints(types[section])
        for f in dataclasses.fields(types[section]):
            if only in ("", f.name) and f"{section}.{f.name}" not in sourced:
                yield section, f, hints[f.name]


def _cmd_stage(stage: Stage, args: argparse.Namespace) -> int:
    values = vars(args)
    sections: dict[str, dict] = {}
    for section, f, _ in _flag_fields(stage):
        sections.setdefault(section, {})[f.name] = values[f"{section}.{f.name}"]
    types = _section_types()
    # stage bodies get their files through slots and never read config.paths
    config = PipelineConfig(
        seed=args.seed,
        paths=PathsConfig("", "", "", ""),
        **{section: types[section](**kw) for section, kw in sections.items()},
    )
    paths = {slot.name: values[slot.name] for slot in stage.slots}
    extras = {name: values[name] for name in stage.extras}
    if stage.judged:
        extras["judge"] = _judge(config.eval)
    counts = _run_stage(stage, config, args.seed, paths, Held(), extras)
    print(json.dumps(counts, sort_keys=True))
    return 0


def _add_stage_parser(sub: argparse._SubParsersAction, stage: Stage) -> None:
    p = sub.add_parser(stage.name, help=stage.help)
    for slot in stage.slots:
        many = {"nargs": "+", "action": "extend"} if slot.kind == "files" else {}
        p.add_argument(
            _flag(slot),
            dest=slot.name,
            type=Path,
            required=not slot.optional,
            **many,
        )
    for section, f, tp in _flag_fields(stage):
        key = f.metadata.get("key", f.name)
        flag = f.metadata.get("flag", key)
        literal = get_origin(tp) is Literal  # argparse checks choices itself
        p.add_argument(
            "--" + flag.replace("_", "-"),
            dest=f"{section}.{f.name}",
            type=None if literal else _flag_type(tp),
            default=f.default,
            choices=get_args(tp) if literal else None,
            metavar=None if literal else flag.upper(),
            help=f"{section}.{key} (default: %(default)s)",
        )
    for name, kwargs in stage.extras.items():
        p.add_argument(f"--{name}", **kwargs)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=lambda args: _cmd_stage(stage, args))


def _cmd_run(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    config = load_config(config_path)
    stages = args.stages.split(",") if args.stages else None
    workdir = run_pipeline(config, config_dir=config_path.parent, stages=stages)
    print(f"pipeline complete; artifacts in {workdir}")
    return 0


def _cmd_demo(args: argparse.Namespace) -> int:
    config_path = demo_mod.materialize(args.out)
    print(f"demo bundle written; run: ecsynth run --config {config_path}")
    return 0


def _cmd_planted(args: argparse.Namespace) -> int:
    spec = simbench_mod.PlantedSpec(
        n_samples=args.n,
        n_models=args.k,
        n_metrics=args.d,
        noise_sigma=args.noise,
        seed=args.seed,
    )
    bench = simbench_mod.generate(spec)
    prefix = Path(args.out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    records.write_scores(bench.scores, f"{prefix}_scores.jsonl")
    for i, m in enumerate(bench.matrices):
        records.write_eval_matrix(m, f"{prefix}_matrix{i}.jsonl")
    print(
        f"planted benchmark: {args.n} samples, {args.k} models x {len(bench.matrices)} sets, "
        f"noise floor {bench.truth.noise_total:.3e}"
    )
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.dataset:
        stats = grammar_mod.error_stats(records.read_ec_dataset(args.dataset))
        print("error categories:")
        for cat, frac in stats.category_fractions.items():
            print(f"  {cat:<16} {frac * 100:5.1f}%")
        print("errors per example:")
        for n, frac in stats.errors_per_example.items():
            print(f"  {n}: {frac * 100:5.1f}%")
    if args.clusters:
        model = records.read_clusters(args.clusters)
        s = cluster_mod.cluster_stats(model)
        print(f"clusters: k={model.k} mean={s.mean_size:.1f} std={s.std_size:.1f}")
        for lo, hi, count in s.histogram:
            print(f"  [{lo:8.1f}, {hi:8.1f}] {count}")
    if not (args.dataset or args.clusters):
        raise ConfigError("stats requires --dataset and/or --clusters")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecsynth",
        description="Synthetic error-correction data pipeline with domain-adaptive reweighting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run pipeline stages from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--stages", default="", help="comma-separated subset of stages")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("demo", help="materialize the bundled demo corpus and config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_demo)

    for stage in STAGES:
        _add_stage_parser(sub, stage)

    p = sub.add_parser("planted", help="generate a planted benchmark")
    p.add_argument("--n", type=int, default=simbench_mod.PlantedSpec.n_samples)
    p.add_argument("--k", type=int, default=simbench_mod.PlantedSpec.n_models)
    p.add_argument("--d", type=int, default=simbench_mod.PlantedSpec.n_metrics)
    p.add_argument("--noise", type=float, default=simbench_mod.PlantedSpec.noise_sigma)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-prefix", required=True)
    p.set_defaults(func=_cmd_planted)

    p = sub.add_parser("stats", help="error-category and cluster statistics")
    p.add_argument("--dataset", default="")
    p.add_argument("--clusters", default="")
    p.set_defaults(func=_cmd_stats)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (ConfigError, records.RecordError, ValueError, FileNotFoundError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
