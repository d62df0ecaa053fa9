"""identkit benchmark: census rows and single-model analysis, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload census_n4 --seed 1 --seconds 36 --trace 0

Workloads are ``census_n4``, ``census_n5`` and ``analyze`` (see README.md).
Every run first makes cold ``identkit analyze`` runs on the fixtures: the
CPU time of ``import identkit`` inside them gives ``setup_s`` and their
whole CPU time ``cli_cold_s_p50``.  It then repeats full passes of the
workload while the next is expected to end within ``--seconds`` of the
start, checking every result.  With ``--trace 1`` it instead makes one
untraced and one traced pass and reports per-layer counts and self time.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.

Times that gate regressions are CPU seconds (of the process and its
children) scaled to a reference host speed by ``speed.Probe``, which
samples the host's speed while the work runs; the raw CPU figures are
printed beside them.  ``cpu_efficiency`` is the one wall-based ratio.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
FIXTURES = ROOT / "fixtures"
CLI_FIXTURES = (  # one of each shape: exchanges, chord, two in/out, n=5 loop, star
    "cascade_exchange.json",
    "cycle_with_chord.json",
    "dual_io_hub.json",
    "loop_with_tail.json",
    "star_prime.json",
)
COLD_RUNS_PER_FIXTURE = 2  # cold CLI runs per fixture and run; they also time the import
SPAWNS = 5  # bare interpreters and import-time splits per traced run
SPAWN_TIMEOUT_S = 60
# What the installed ``identkit`` console script runs, under the speed probe;
# it reports the import's CPU time, raw and scaled, and the probe's totals.
CLI_PROBE = (
    "import json, resource, sys, time\n"
    "sys.path.insert(0, sys.argv.pop(1))\n"
    "import speed\n"
    "def now():\n"
    "    r = resource.getrusage(resource.RUSAGE_SELF)\n"
    "    return time.perf_counter(), r.ru_utime, r.ru_stime\n"
    "probe = speed.Probe()\n"
    "probe.start()\n"
    "w0, u0, s0 = now()\n"
    "import identkit\n"
    "w1, u1, s1 = now()\n"
    "from identkit.cli import main\n"
    "try:\n"
    "    code = main(sys.argv[1:])\n"
    "finally:\n"
    "    probe.stop()\n"
    "    factor, own = probe.window(w0, time.perf_counter())\n"
    "    print('probe=' + json.dumps({'import_cpu_s': u1 - u0 + s1 - s0,\n"
    "        'import_scaled_s': probe.scaled(w0, w1, u1 - u0, s1 - s0),\n"
    "        'factor': factor, 'probe_cpu_s': own}), file=sys.stderr)\n"
    "sys.exit(code)\n"
)

END_TO_END_UNITS = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "cpu_efficiency": "ratio",
    "model_ms_p50": "ms",
    "model_ms_p90": "ms",
    "cli_cold_s_p50": "s",
    "peak_rss_mb": "MB",
}


class Checks:
    """Operations attempted and failed; a failure is printed, never raised."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def __call__(self, ok: bool, label: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"FAILED: {label}", flush=True)


def children_cpu() -> tuple[float, float]:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime, usage.ru_stime


def spawn(argv: list[str], check: Checks, label: str):
    """Run a fresh interpreter; ((user, system) CPU seconds, completed process or None)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    user0, sys0 = children_cpu()
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=SPAWN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        check(False, f"{label}: no exit within {SPAWN_TIMEOUT_S}s")
        proc = None
    else:
        check(proc.returncode == 0, f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
    user1, sys1 = children_cpu()
    return (user1 - user0, sys1 - sys0), proc if proc and proc.returncode == 0 else None


def quantile(values: list[float], q: float) -> float:
    """Linear interpolation between closest ranks (``inclusive`` method)."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(q * 100) - 1]


# -- cold starts ------------------------------------------------------------


def measure_cold_starts(seed: int, check: Checks) -> tuple[dict[str, list[float]], list]:
    """Cold ``identkit analyze --format json`` runs.

    Each run goes through the installed console script's code path under the
    speed probe and times its own ``import identkit``.  Returns, one value
    per run after one warm-up run, the import's CPU seconds and the whole
    process's CPU seconds, raw and scaled to the reference speed; and the
    answers, for ``check_cold_starts``.
    """
    rng = random.Random(f"{seed}:cli")
    order = [name for _ in range(COLD_RUNS_PER_FIXTURE) for name in CLI_FIXTURES]
    rng.shuffle(order)
    cold = {"import": [], "import_scaled": [], "cpu": [], "cpu_scaled": []}
    answers = []
    for k, name in enumerate([order[0]] + order):
        cli_seed = rng.randrange(1_000_000)
        argv = ["-c", CLI_PROBE, str(BENCH), "analyze", "--model", str(FIXTURES / name)]
        argv += ["--format", "json", "--seed", str(cli_seed)]
        label = f"cold identkit analyze {name} seed={cli_seed}"
        (user, system), proc = spawn(argv, check, label)
        if proc is None or k == 0:  # the first run is the warm-up
            continue
        try:
            got = json.loads(proc.stdout)
            marker = [ln for ln in proc.stderr.splitlines() if ln.startswith("probe=")]
            probe = json.loads(marker[-1][len("probe="):])
        except (ValueError, IndexError) as exc:
            check(False, f"{label}: unreadable output: {exc!r}")
            continue
        cold["import"].append(probe["import_cpu_s"])
        cold["import_scaled"].append(probe["import_scaled_s"])
        cold["cpu"].append(user + system)
        cold["cpu_scaled"].append(max(0.0, user - probe["probe_cpu_s"]) * probe["factor"] + system)
        answers.append((name, cli_seed, label, got))
    return cold, answers


def check_cold_starts(answers, check: Checks) -> None:
    """Each cold run's verdict and rank equal the in-process result for its model and seed.

    Run after the workload, so that the workload's process starts with the
    same heap whatever fixtures and seeds the cold runs drew.
    """
    from identkit import identcore
    from identkit.model import load_model

    for name, cli_seed, label, got in answers:
        want = identcore.classify_identifiability(load_model(str(FIXTURES / name)), seed=cli_seed)
        same = (got.get("verdict"), got.get("jacobian_rank")) == (want.verdict, want.jacobian_rank)
        check(same, f"{label}: CLI {got.get('verdict')}/{got.get('jacobian_rank')} "
              f"!= in-process {want.verdict}/{want.jacobian_rank}")


def measure_startup_layers(check: Checks) -> dict[str, float]:
    """Bare interpreter start and the import-time split of ``import identkit``."""
    bare = [sum(spawn(["-c", "pass"], check, "bare interpreter")[0]) for _ in range(SPAWNS)]
    split = {"sympy": [], "networkx": [], "identkit_self": []}
    for k in range(SPAWNS):
        _, proc = spawn(["-X", "importtime", "-c", "import identkit"], check, f"importtime {k}")
        if proc is None:
            continue
        found = {"sympy": 0.0, "networkx": 0.0, "identkit_self": 0.0}
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                self_us = int(parts[0].split(":")[1])
                cumulative_us = int(parts[1])
            except ValueError:
                continue  # the header line
            name = parts[2].strip()
            if name in ("sympy", "networkx"):
                found[name] = cumulative_us / 1e6
            elif name.split(".")[0] == "identkit":
                found["identkit_self"] += self_us / 1e6
        for key, value in found.items():
            split[key].append(value)
    return {
        "cli.spawn_s": statistics.median(bare),
        "cli.import_sympy_s": statistics.median(split["sympy"] or [0.0]),
        "cli.import_networkx_s": statistics.median(split["networkx"] or [0.0]),
        "cli.import_identkit_self_s": statistics.median(split["identkit_self"] or [0.0]),
    }


# -- main phase -----------------------------------------------------------


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def end_to_end(workload, inputs, seed, deadline, check, cold) -> dict[str, float]:
    """Full passes under the speed probe while the next is expected to end by ``deadline``.

    At least one pass.  Each row's or model's CPU time is scaled to the
    reference speed with the probe samples taken while it ran.
    """
    probe = speed.Probe()
    passes = []
    probe.start()
    try:
        while True:
            started = time.perf_counter()
            passes.append(workload.run_pass(inputs, seed, check, repeat=True))
            now = time.perf_counter()
            if now + (now - started) > deadline:
                break
    finally:
        probe.stop()
    wall = sum(p.wall_s for p in passes)
    cpu = sum(p.cpu_s for p in passes)
    # each row's or model's median time over its runs: one sample per item and run
    scaled, raw, graphs = {}, {}, {}
    for p in passes:
        for key, w0, w1, user, system, g in p.items:
            scaled.setdefault(key, []).append(probe.scaled(w0, w1, user, system))
            raw.setdefault(key, []).append(user + system)
            graphs[key] = g
    item_s = {key: statistics.median(times) for key, times in scaled.items()}
    raw_s = {key: statistics.median(times) for key, times in raw.items()}
    latencies = [1000.0 * item_s[key] / graphs[key] for key in item_s]
    raw_ms = [1000.0 * raw_s[key] / graphs[key] for key in raw_s]
    units = passes[0].units
    print(
        f"samples: setup={len(cold['import'])} cli={len(cold['cpu'])} passes={len(passes)} "
        f"model_ms={len(latencies)} item runs={sum(map(len, scaled.values()))} "
        f"units/pass={units} probe={len(probe.samples)}; "
        f"wall={wall:.3f}s cpu={cpu:.3f}s"
    )
    for key, values in cold.items():
        print(f"cold {key}: " + " ".join(f"{v:.4f}" for v in values))
    print(
        f"raw, not scaled: setup_cpu_s={statistics.median(cold['import']):.6g} "
        f"graphs_per_cpu_s={sum(graphs.values()) / sum(raw_s.values()):.6g} "
        f"model_cpu_ms_p50={quantile(raw_ms, 0.5):.6g} model_cpu_ms_p90={quantile(raw_ms, 0.9):.6g} "
        f"cli_cold_cpu_s_p50={statistics.median(cold['cpu']):.6g}"
    )
    return {
        "setup_s": statistics.median(cold["import_scaled"]),
        "graphs_per_s": sum(graphs.values()) / sum(item_s.values()),
        "cpu_efficiency": cpu / (workload.jobs * wall),
        "model_ms_p50": quantile(latencies, 0.5),
        "model_ms_p90": quantile(latencies, 0.9),
        "cli_cold_s_p50": statistics.median(cold["cpu_scaled"]),
        "peak_rss_mb": peak_rss_mb(),
    }


def traced(workload, inputs, seed, check, cold, startup) -> dict[str, float]:
    """One untraced and one traced pass; per-layer metrics of the traced one."""
    plain = workload.run_pass(inputs, seed, check)
    tracer = layers.Tracer()
    tracer.install()
    try:
        run = workload.run_pass(inputs, seed, check)
    finally:
        check(tracer.restore(), "tracer left a wrapped function behind")
    check(run.signature == plain.signature, "traced counts or verdicts differ from untraced")
    print(f"tracer: absent functions {tracer.absent or 'none'}; "
          f"absent layers {tracer.absent_layers or 'none'}; "
          f"worker chunks merged {tracer.worker_chunks}")

    metrics = {}
    for layer in layers.LAYERS:
        metrics[f"{layer}_calls"] = (tracer.calls[layer], "count")
        metrics[f"{layer}_s"] = (tracer.self_s[layer], "s")
    calls = tracer.calls
    scr = layers.TRUTH_LAYER
    metrics["graphprops.pass_ratio"] = (tracer.true[scr] / calls[scr] if calls[scr] else 0.0, "ratio")
    builds = calls["model.build"]
    metrics["identcore.trials_per_jacobian"] = (
        calls["identcore.prime"] / builds if builds else 0.0, "count")
    busy = sum(tracer.self_s.values())
    metrics["census.idle_s"] = (max(0.0, workload.jobs * run.wall_s - run.cpu_s), "s")
    metrics["layers_cpu_ratio"] = (busy / run.cpu_s if run.cpu_s else 0.0, "ratio")
    metrics.update({name: (value, "s") for name, value in startup.items()})
    cli_run = statistics.median(cold["cpu"]) - startup["cli.spawn_s"] - statistics.median(cold["import"])
    metrics["cli.run_s"] = (max(0.0, cli_run), "s")
    metrics["tracing_overhead_ratio"] = (run.wall_s / plain.wall_s - 1.0, "ratio")
    print(f"traced wall={run.wall_s:.3f}s cpu={run.cpu_s:.3f}s; untraced wall={plain.wall_s:.3f}s; "
          f"layer self total={busy:.3f}s")
    return metrics


# -- provenance and entry point -------------------------------------------


def provenance() -> dict:
    def version(package: str) -> str:
        try:
            return importlib.metadata.version(package)
        except importlib.metadata.PackageNotFoundError:
            return "absent"

    sha = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        except OSError:  # no git on this machine
            proc = None
        if proc is not None and proc.returncode == 0:
            sha = proc.stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((SRC / "identkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "sympy": version("sympy"),
        "networkx": version("networkx"),
        "numpy": version("numpy"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not (SRC / "identkit" / "__init__.py").is_file() or not FIXTURES.is_dir():
        print(f"error: no identkit sources under {SRC} or no fixtures", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    print(f"provenance: {json.dumps(provenance(), sort_keys=True)}")
    for line in workload.disputed_lines():
        print(line)
    check = Checks()
    cold, answers = measure_cold_starts(args.seed, check)
    if not cold["cpu"]:
        print("error: no cold import or CLI spawn succeeded", file=sys.stderr)
        return 1
    inputs = workload.prepare(args.seed)
    if args.trace:
        startup = measure_startup_layers(check)
        metrics = traced(workload, inputs, args.seed, check, cold, startup)
    else:
        values = end_to_end(workload, inputs, args.seed, deadline, check, cold)
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}
    check_cold_starts(answers, check)

    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"failed_ratio = {check.failed}/{check.attempted} = {check.failed / check.attempted:.6g}")
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
