"""End-to-end benchmark of the ecsynth pipeline.

Usage (from the repository root):

  python3 perfbench/run.py --workload demo --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Each run sets a workload up from --seed (and, for workloads with several
instances, from seeds derived from it), then runs full pipeline passes
through the public `ecsynth.cli.run_pipeline` for at least --seconds (and at
least two passes per seed), with tracing off, and reports the end-to-end
metrics declared in BENCHMARK.json. With --trace 1 it instead alternates an
untraced stage-by-stage pass with a traced one (see tracer.py) and reports
the per-layer metrics. Output checks fail the run (exit code 1):

  - every pass of a seed produces identical artifact hashes;
  - demo: the artifacts at the demo config's own seed equal
    tests/goldens/golden_hashes.json (a pass at that seed is added when
    the run does not use it);
  - http-loopback: every artifact outside runlog/ equals the mock path's at
    the same seed.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Scratch files go under .perfbench/ in the repository
root; per-run results, with the environment and the trace spans, are kept in
.perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN_PATH = ROOT / "tests" / "goldens" / "golden_hashes.json"
OUT_DIR = ROOT / ".perfbench"

if not (SRC / "ecsynth" / "cli.py").is_file():
    sys.exit(f"perfbench: ecsynth sources not found under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ecsynth import cli, demo, records  # noqa: E402
from ecsynth.util import derive_seed  # noqa: E402

from loopback_stub import JUDGE_PROMPT  # noqa: E402
from tracer import Tracer  # noqa: E402

NPROC = len(os.sched_getaffinity(0))
BLAS_ENV = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
SETUP_REPS = 5  # timed set-ups per run; setup_s is their median


@dataclass(frozen=True)
class Workload:
    """Inputs of one workload; every field is fixed, only the seed varies."""

    docs: int | None  # generated corpus size; None keeps the bundled demo corpus
    k: int = 50
    kmeans_max_iters: int = 50
    per_cluster: int = 10
    http: bool = False  # grammar client and judge through the loopback stub
    golden: bool = False  # check artifacts at the demo seed against the goldens
    instances: int = 1  # seeds per run: --seed and ones derived from it

    def __post_init__(self) -> None:
        if self.http and self.instances != 1:
            raise ValueError("the loopback stub answers for one seed; use one instance")


WORKLOADS = {
    # Demo passes differ by up to 15% in work between seeds (L-BFGS iterations,
    # kept pairs); a run spreads its passes over eight seeds to even that out.
    "demo": Workload(docs=None, golden=True, instances=8),
    # Converged k-means takes 10 to 21 Lloyd iterations here depending on the
    # seed (seeds 1-10), which alone moves a pass between 19 and 26 s; the cap
    # gives every seed the same Lloyd work.
    "corpus50k": Workload(docs=50_000, k=500, kmeans_max_iters=10, per_cluster=20),
    "http-loopback": Workload(docs=None, http=True),
}


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu
            )
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 1.25 has no mode=; some builds list no blas
        blas = "unknown"
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "cpu": cpu,
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _cpu_seconds() -> float:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime + r.ru_stime


def _hashes(workdir: Path) -> dict[str, str]:
    out = {}
    for p in sorted(workdir.rglob("*")):
        if p.is_file():
            out[str(p.relative_to(workdir))] = hashlib.sha256(p.read_bytes()).hexdigest()
    return out


class LoopbackStub:
    """The loopback stub process; started and stopped by the benchmark."""

    def __init__(self, seed: int, failure_rate: float, threads: int):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        self.proc = subprocess.Popen(
            [
                sys.executable, str(HERE / "loopback_stub.py"), "--seed", str(seed),
                "--failure-rate", repr(failure_rate), "--threads", str(threads),
            ],
            stdout=subprocess.PIPE,
            env=env,
            text=True,
        )
        line = self.proc.stdout.readline().strip()
        if not line.isdigit():
            self.close()
            raise RuntimeError(f"loopback stub did not start (exit code {self.proc.returncode})")
        self.url = f"http://127.0.0.1:{line}"

    def stats(self) -> dict[str, int]:
        with urllib.request.urlopen(f"{self.url}/stats", timeout=30) as resp:
            return json.loads(resp.read().decode("utf-8"))

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def prepare(wl: Workload, seed: int, dest: Path, stub: LoopbackStub | None) -> cli.PipelineConfig:
    """Materialize the demo bundle into dest and write this workload's config."""
    config_path = demo.materialize(dest)
    if wl.docs is not None:
        records.write_corpus(demo.make_demo_corpus(wl.docs, seed), dest / "demo_corpus.jsonl")
    config = json.loads(config_path.read_text(encoding="utf-8"))
    config["seed"] = seed
    config["cluster"].update(k=wl.k, max_iters=wl.kmeans_max_iters)
    config["sample"]["per_cluster"] = wl.per_cluster
    if wl.http:
        config["grammar"].update(client="http", endpoint=f"{stub.url}/inject", concurrency=NPROC)
        config["eval"] = {
            "judge": "http", "judge_endpoint": f"{stub.url}/judge", "judge_prompt": JUDGE_PROMPT,
        }
    config_path.write_text(json.dumps(config, indent=2) + "\n", encoding="utf-8")
    return cli.load_config(config_path)


@dataclass
class Instance:
    """One seed's inputs within a run, and the artifacts its passes must match."""

    seed: int
    dir: Path
    config: cli.PipelineConfig
    first: dict[str, str] | None = None  # artifact hashes of its first pass
    mock: dict[str, str] | None = None  # mock path's artifact hashes (http only)


class Run:
    """One run of a workload: its seeds' set-up, passes, checks and counters."""

    def __init__(self, wl: Workload, seed: int, work: Path):
        self.wl, self.work = wl, work
        self.seeds = [seed] + [derive_seed(seed, "instance", i) for i in range(1, wl.instances)]
        self.stub: LoopbackStub | None = None
        self.instances: list[Instance] = []
        self.setup_s: list[float] = []
        self.problems: list[str] = []
        self.attempted = 0
        self.failed = 0

    def setup(self) -> None:
        """Times SETUP_REPS set-ups of what a user sets up for one seed: a fresh
        interpreter's imports, the stub, the inputs and the config. The other
        seeds of the run are then prepared once, untimed."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        first = self.work / "0"
        for _ in range(SETUP_REPS):
            self.close()  # keep only the last set-up's stub
            shutil.rmtree(first, ignore_errors=True)
            t0 = time.perf_counter()
            subprocess.run([sys.executable, "-c", "import ecsynth.cli"], env=env, check=True)
            if self.wl.http:
                failure_rate = demo.DEMO_CONFIG["grammar"]["failure_rate"]
                self.stub = LoopbackStub(self.seeds[0], failure_rate, NPROC)
            config = prepare(self.wl, self.seeds[0], first, self.stub)
            self.setup_s.append(time.perf_counter() - t0)
        self.instances = [Instance(self.seeds[0], first, config)]
        for i, seed in enumerate(self.seeds[1:], start=1):
            d = self.work / str(i)
            self.instances.append(Instance(seed, d, prepare(self.wl, seed, d, self.stub)))

    def close(self) -> None:
        if self.stub is not None:
            self.stub.close()
            self.stub = None

    def _stub_counts(self) -> dict[str, int]:
        return self.stub.stats() if self.stub is not None else {"inject": 0, "judge": 0, "errors": 0}

    def reference_checks(self) -> None:
        """Extra passes the output checks compare against; they also warm up."""
        default_seed = demo.DEMO_CONFIG["seed"]
        if self.wl.golden and default_seed not in self.seeds:
            ref = self.work / "golden"
            cfg = prepare(self.wl, default_seed, ref, None)
            self._check_golden(_hashes(cli.run_pipeline(cfg, config_dir=ref)))
        if self.wl.http:
            mock_wl = dataclasses.replace(self.wl, http=False)
            for inst in self.instances:
                ref = self.work / f"mock-{inst.seed}"
                cfg = prepare(mock_wl, inst.seed, ref, None)
                inst.mock = _hashes(cli.run_pipeline(cfg, config_dir=ref))

    def _check_golden(self, hashes: dict[str, str]) -> None:
        golden = json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))
        if hashes != golden:
            diff = sorted(k for k in golden.keys() | hashes.keys() if golden.get(k) != hashes.get(k))
            self.problems.append(f"artifacts differ from {GOLDEN_PATH.name}: {diff}")

    def one_pass(self, inst: Instance, stagewise: bool, tracer: Tracer | None = None) -> dict:
        """One full pipeline pass in a clean workdir; returns its timings."""
        workdir = inst.dir / "artifacts"
        shutil.rmtree(workdir, ignore_errors=True)
        before = self._stub_counts()
        stages: dict[str, tuple[float, float]] = {}
        cpu0, t0 = _cpu_seconds(), time.perf_counter()
        try:
            if stagewise:
                for stage in cli.STAGE_ORDER:
                    c, t = _cpu_seconds(), time.perf_counter()
                    with tracer.stage_span(stage) if tracer else contextlib.nullcontext():
                        cli.run_pipeline(inst.config, config_dir=inst.dir, stages=[stage])
                    stages[stage] = (time.perf_counter() - t, _cpu_seconds() - c)
            else:
                cli.run_pipeline(inst.config, config_dir=inst.dir)
        except cli.StageError as e:
            self.attempted += 1
            self.failed += 1
            self.problems.append(str(e))
            raise
        wall, cpu = time.perf_counter() - t0, _cpu_seconds() - cpu0
        after = self._stub_counts()
        grammar_log = json.loads((workdir / "runlog" / "inject-grammar.json").read_text())["counts"]
        requests = sum(after[k] - before[k] for k in ("inject", "judge"))
        self.attempted += (
            len(cli.STAGE_ORDER)
            + grammar_log["injected"] + grammar_log["failed"] + grammar_log["skipped"]
            + requests
        )
        self.failed += grammar_log["failed"] + after["errors"] - before["errors"]
        with open(workdir / "ec_synth.jsonl", "rb") as f:
            pairs = sum(1 for line in f if line.strip())
        self._check_pass(inst, _hashes(workdir))
        return {
            "seed": inst.seed, "wall_s": wall, "cpu_s": cpu, "pairs": pairs, "stages": stages,
            "judge_requests": after["judge"] - before["judge"],
            "inject_requests": after["inject"] - before["inject"],
        }

    def _check_pass(self, inst: Instance, hashes: dict[str, str]) -> None:
        if inst.first is not None:
            if hashes != inst.first:
                self.problems.append(f"seed {inst.seed}: artifacts differ between passes")
            return
        inst.first = hashes
        if self.wl.golden and inst.seed == demo.DEMO_CONFIG["seed"]:
            self._check_golden(hashes)
        if inst.mock is not None:
            strip = lambda h: {k: v for k, v in h.items() if not k.startswith("runlog/")}  # noqa: E731
            if strip(hashes) != strip(inst.mock):
                self.problems.append(f"seed {inst.seed}: loopback artifacts differ from the mock path's")

    def next_instance(self, done: int) -> Instance:
        return self.instances[done % len(self.instances)]


def _median(values: list[float]) -> float:
    return float(statistics.median(values))


def measure(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """Untraced full passes, cycling over the instances, for at least `seconds`
    and until every instance has had two passes."""
    passes = []
    start = time.perf_counter()
    while len(passes) < 2 * len(run.instances) or time.perf_counter() - start < seconds:
        passes.append(run.one_pass(run.next_instance(len(passes)), stagewise=False))
    metrics = {
        "pipeline_s": _median([p["wall_s"] for p in passes]),
        "pairs_per_s": _median([p["pairs"] / p["wall_s"] for p in passes]),
        "cpu_s": _median([p["cpu_s"] for p in passes]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": _median(run.setup_s),
    }
    return metrics, {"passes": passes}


def measure_traced(run: Run, seconds: float) -> tuple[dict[str, float], dict]:
    """Pairs of (untraced, traced) stage-by-stage passes, cycling over the
    instances until each had one pair and `seconds` are used; medians per metric."""
    samples: dict[str, list[float]] = {}
    raw = []
    start = time.perf_counter()
    while len(raw) < len(run.instances) or time.perf_counter() - start < seconds:
        inst = run.next_instance(len(raw))
        plain = run.one_pass(inst, stagewise=True)
        tracer = Tracer()
        with tracer.installed():
            traced = run.one_pass(inst, stagewise=True, tracer=tracer)
        values = tracer.layer_metrics()
        for stage, (wall, cpu) in plain["stages"].items():
            values[f"cli.stage.{stage}.wall_s"] = wall
            values[f"cli.stage.{stage}.cpu_s"] = cpu
        values["grammar.http_requests"] = float(traced["inject_requests"])
        values["http.judge_requests"] = float(traced["judge_requests"])
        values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
        for k, v in values.items():
            samples.setdefault(k, []).append(v)
        raw.append({"untraced": plain, "traced": traced, "spans": tracer.span_records()})
    return {k: _median(v) for k, v in samples.items()}, {"pairs": raw}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    wl = WORKLOADS[name]
    work = OUT_DIR / "work" / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    run = Run(wl, seed, work)
    metrics: dict[str, float] = {}
    detail: dict = {}
    try:
        run.setup()
        run.reference_checks()
        metrics, detail = (measure_traced if trace else measure)(run, seconds)
    except cli.StageError:
        pass  # already counted and recorded as a problem
    finally:
        run.close()
        shutil.rmtree(work, ignore_errors=True)
    declared = declared_metrics(trace)
    if not run.problems and set(metrics) != set(declared):
        run.problems.append(
            f"metrics differ from BENCHMARK.json: missing {sorted(set(declared) - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - set(declared))}"
        )
    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "problems": run.problems,
        "attempted": run.attempted, "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in declared.items() if k in metrics},
    }
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(dict(result, detail=detail), indent=1) + "\n", encoding="utf-8"
    )
    return result


def report(result: dict) -> None:
    print(f"env: {json.dumps(result['env'], sort_keys=True)}")
    print(f"workload {result['workload']} seed={result['seed']} trace={result['trace']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}")
    attempted, failed = result["attempted"], result["failed"]
    ratio = failed / attempted if attempted else 1.0
    print(f"  {'failed_ratio':<34} {ratio:>14.6g} ratio ({failed} failed / {attempted} attempted)")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")


def final_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    )


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each in its own process so that peak RSS is its own."""
    ok, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            ],
            stdout=subprocess.PIPE,
            text=True,
        )
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        try:
            last = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"  workload {name} printed no result (exit code {proc.returncode})")
            ok = False
            continue
        ok = ok and proc.returncode == 0 and last["correct"]
        attempted += last["attempted"]
        failed += last["failed"]
        metrics.update({f"{name}.{k}": v for k, v in last["metrics"].items()})
    print(final_line(ok, attempted, failed, metrics))
    return 0 if ok else 1


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="ecsynth pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    report(result)
    correct = not result["problems"]
    metrics = result["metrics"]
    print(final_line(correct, max(result["attempted"], 1), result["failed"], metrics), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    # on SIGTERM, unwind so that the stub process is stopped and waited for
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
