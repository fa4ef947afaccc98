"""eigenmps benchmark: one workload end to end, closed loop, in one process.

Run from the repository root:

    python3 bench/run.py --workload sat-product --seed 1 --seconds 55 --trace 0
    python3 bench/run.py --workload tfi-shots --seed 1 --seconds 55 --trace 1
    python3 bench/run.py --steady 10 --seconds 55          # spread behind each bound

One operation is one generated instance: read and validate its config, build
the oracle and run the sweep through `cli.main_run` (which also exports the
MPS, audits every cut and writes the record atomically), then `cli.main_analyze`
the written record.  Instances run one after another until --seconds is
spent.  Outputs are checked after the loop, against computations in
bench/reference.py, so that the peak resident set is read before the checks
allocate anything.  The last line of standard output is one JSON object:
end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

# One BLAS thread: the loop is single-process and closed, and one thread keeps
# the timings independent of whatever else the machine's other core runs.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import io  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

WORK_ROOT = ".bench_work"
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# Cheap set-ups are repeated after each operation until this much time is
# spent on them, so that their median is not one millisecond-scale sample.
SETUP_SAMPLE_S = 0.25
SETUP_MAX_REPS = 25

END_TO_END = {"setup_s": "s", "solve_s": "s", "run_s": "s", "peak_rss_mb": "MB"}

# per-layer metric -> (unit, layer, statistic); statistics come from spans
PER_LAYER = {
    "simulator.apply.calls": ("count", "simulator.apply", "calls"),
    "simulator.apply.self_s": ("s", "simulator.apply", "self_s"),
    "simulator.sample_probs.calls": ("count", "simulator.sample_probs", "calls"),
    "simulator.sample_probs.self_s": ("s", "simulator.sample_probs", "self_s"),
    "ansatz.block_matrices.calls": ("count", "ansatz.block_matrices", "calls"),
    "ansatz.block_matrices.self_s": ("s", "ansatz.block_matrices", "self_s"),
    "ansatz.embed_parameters.calls": ("count", "ansatz.embed_parameters", "calls"),
    "ansatz.embed_parameters.self_s": ("s", "ansatz.embed_parameters", "self_s"),
    "oracle.apply.calls": ("count", "oracle.apply", "calls"),
    "oracle.apply.self_s": ("s", "oracle.apply", "self_s"),
    "oracle.build.self_s": ("s", "oracle.build", "self_s"),
    "oracle.hamiltonian.self_s": ("s", "oracle.hamiltonian", "self_s"),
    "oracle.evolution.self_s": ("s", "oracle.evolution", "self_s"),
    "vqa.objective.calls": ("count", "vqa.objective", "calls"),
    "vqa.objective.mean_ms": ("ms", "vqa.objective", "mean_ms"),
    "vqa.marginals.self_s": ("s", "vqa.marginals", "self_s"),
    "vqa.minimize.calls": ("count", "vqa.minimize", "calls"),
    "vqa.minimize.self_s": ("s", "vqa.minimize", "self_s"),
    "vqa.minimize.hit_ratio": ("ratio", "vqa.minimize", "hit_ratio"),
    "tensor.statevector_to_mps.self_s": ("s", "tensor.statevector_to_mps", "self_s"),
    "tensor.schmidt_spectrum.calls": ("count", "tensor.schmidt_spectrum", "calls"),
    "tensor.schmidt_spectrum.self_s": ("s", "tensor.schmidt_spectrum", "self_s"),
    "cli.write_json_atomic.self_s": ("s", "cli.write_json_atomic", "self_s"),
    "cli.main_analyze.self_s": ("s", "cli.main_analyze", "self_s"),
    "trace.overhead_s": ("s", None, None),
}
ISOLATED = {
    "ansatz.block_matrices.ms": "ms",
    "simulator.apply_block.ms": "ms",
    "oracle.apply.ms": "ms",
    "vqa.objective_report.ms": "ms",
    "vqa.loss_gradient_fd.ms": "ms",
    "cli.main_analyze.ms": "ms",
    "vqa.objective.bytes_computed": "bytes",
    "vqa.objective.flops_computed": "flop",
}


def load_program() -> None:
    """Put the checkout's src/ first on the path; refuse to run without it."""
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "eigenmps", "__init__.py")):
        sys.exit("bench/run.py: no src/eigenmps in the current directory; "
                 "run it from the root of an eigenmps checkout")
    sys.path.insert(0, src)
    import eigenmps

    if not os.path.abspath(eigenmps.__file__).startswith(src + os.sep):
        sys.exit(f"bench/run.py: eigenmps imported from {eigenmps.__file__}, not {src}")


@dataclass
class Op:
    """One operation's measurements, or the error it raised."""

    index: int
    setup_samples: list[float] = field(default_factory=list)
    solve_s: float = 0.0
    run_s: float = 0.0
    layers: dict = field(default_factory=dict)
    restart_certificates: list[float] = field(default_factory=list)
    captured: dict = field(default_factory=dict)
    analysis: dict | None = None
    error: str | None = None


def run_operation(workload, inst, tracer, repeat_setup: bool) -> Op:
    """Run one instance as `eigenmps run` + `eigenmps analyze` would."""
    from eigenmps import cli
    from spans import summarize

    op = Op(inst.index)
    tracer.reset()
    try:
        started = time.perf_counter()
        with open(inst.config_path, encoding="utf-8") as fh:
            config = cli.config_from_dict(json.load(fh))
        config_s = time.perf_counter() - started
        cli.main_run(config)
        op.analysis = cli.main_analyze(config.output_path, out=io.StringIO())
        op.run_s = time.perf_counter() - started
        spans = tracer.reset()
        op.layers = summarize(spans)
        op.restart_certificates = spans.restart_certificates
        op.setup_samples.append(config_s + op.layers["oracle.build"]["total_s"])
        op.solve_s = op.layers["vqa.run_sweep"]["total_s"]
        op.captured = workload.capture(spans.oracle)
        op.captured["shot_evaluations"] = op.layers.get("simulator.sample_probs", {}).get("calls", 0)
        while repeat_setup and sum(op.setup_samples) < SETUP_SAMPLE_S and len(op.setup_samples) < SETUP_MAX_REPS:
            started = time.perf_counter()
            with open(inst.config_path, encoding="utf-8") as fh:
                cli.build_oracle(cli.config_from_dict(json.load(fh)))
            op.setup_samples.append(time.perf_counter() - started)
    except Exception:  # an operation that raises is counted as failed; the loop goes on
        op.error = traceback.format_exc()
        print(f"operation {inst.index} raised:\n{op.error}", file=sys.stderr)
    tracer.reset()
    return op


def check_ops(workload, ops, instances) -> int:
    """Check every completed operation; return how many failed checks."""
    from workloads import check_record

    bad = 0
    for op in ops:
        if op.error is not None:
            continue
        inst = instances[op.index]
        try:
            with open(inst.record_path, encoding="utf-8") as fh:
                record = json.load(fh)
            errors = check_record(workload, inst, record, op.analysis, op.captured)
        except Exception:  # a malformed record is a failed check, not a crash
            errors = [traceback.format_exc()]
        if errors:
            op.error = "; ".join(errors)
            bad += 1
            print(f"operation {op.index} failed its checks: {op.error}", file=sys.stderr)
    return bad


def closed_loop(seconds: float, step) -> None:
    """Call step(i) for i = 0, 1, ... while a typical call still fits in `seconds`."""
    walls = []
    started = time.perf_counter()
    while True:
        begun = time.perf_counter()
        step(len(walls))
        walls.append(time.perf_counter() - begun)
        if time.perf_counter() - started + statistics.median(walls) > seconds:
            return


def measure(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Untraced run: end-to-end metrics, medians over the operations."""
    from spans import PROBE_LAYERS, Tracer

    instances, ops, peak_rss_mb = {}, [], []
    probe = Tracer(PROBE_LAYERS)

    def step(i):
        instances[i] = workload.make(seed, i, workdir)
        with probe:
            ops.append(run_operation(workload, instances[i], probe, repeat_setup=True))
        if i == 0:
            # a fresh process through one instance, as one `eigenmps run` is;
            # later operations only add allocator fragmentation, and how many
            # of them fit in --seconds depends on the machine
            peak_rss_mb.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        if ops[-1].error is None:
            print(f"op {i}: setup {ops[-1].setup_samples[0]:.4f} s, solve {ops[-1].solve_s:.4f} s, "
                  f"run {ops[-1].run_s:.4f} s", flush=True)

    closed_loop(seconds, step)
    raised = sum(op.error is not None for op in ops)
    bad = check_ops(workload, ops, instances)
    done = [op for op in ops if op.error is None]
    if not done:
        sys.exit("bench/run.py: every operation failed; no metric to report")
    values = {
        "setup_s": statistics.median(statistics.median(op.setup_samples) for op in done),
        "solve_s": statistics.median(op.solve_s for op in done),
        "run_s": statistics.median(op.run_s for op in done),
        "peak_rss_mb": peak_rss_mb[0],
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return {"correct": bad == 0, "attempted": len(ops), "failed": raised + bad, "metrics": metrics}


def layer_values(plain: Op, traced: Op, cert_tol: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    values = {}
    for name, (_, layer, stat) in PER_LAYER.items():
        entry = traced.layers.get(layer, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        if stat == "mean_ms":
            values[name] = 1e3 * entry["total_s"] / entry["calls"] if entry["calls"] else 0.0
        elif stat == "hit_ratio":
            certs = traced.restart_certificates
            values[name] = sum(c >= 1.0 - cert_tol for c in certs) / len(certs) if certs else 0.0
        elif stat is not None:
            values[name] = entry[stat]
    values["trace.overhead_s"] = traced.run_s - plain.run_s
    return values


def measure_traced(workload, seed: int, seconds: float, workdir: str) -> dict:
    """Traced run: each instance once untraced and once traced, plus isolated layers."""
    from eigenmps import cli
    from layers import analyze_ms, isolated_timings, objective_work
    from spans import PROBE_LAYERS, Tracer

    instances, isolated, pairs = {}, {}, []
    probe, tracer = Tracer(PROBE_LAYERS), Tracer()

    def step(i):
        inst = instances[i] = workload.make(seed, i, workdir)
        if i == 0:  # first, so that it also warms every kernel the pairs use
            q = cli.build_oracle(cli.config_from_dict(inst.config))
            isolated.update(isolated_timings(workload.n, workload.k_max, q, seed))
            nbytes, flops = objective_work(workload.n, workload.k_max, q.kind)
            isolated["vqa.objective.bytes_computed"] = nbytes
            isolated["vqa.objective.flops_computed"] = flops
            del q
        with probe:
            plain = run_operation(workload, inst, probe, repeat_setup=False)
        if i == 0 and plain.error is None:
            isolated["cli.main_analyze.ms"] = analyze_ms(inst.record_path)
        with tracer:
            pairs.append((plain, run_operation(workload, inst, tracer, repeat_setup=False)))

    closed_loop(seconds, step)
    # both operations of a pair write the same record path; the program's
    # records are deterministic apart from timestamps and wall times
    ops = [op for pair in pairs for op in pair]
    raised = sum(op.error is not None for op in ops)
    bad = check_ops(workload, ops, instances)
    done = [(plain, traced) for plain, traced in pairs if plain.error is None and traced.error is None]
    if not done or "cli.main_analyze.ms" not in isolated:
        sys.exit("bench/run.py: no traced operation completed; no metric to report")
    cert_tol = float(instances[0].config.get("cert_tol", 1e-6))
    per_op = [layer_values(plain, traced, cert_tol) for plain, traced in done]
    # median_low: an observed value, so counts stay whole
    values = {name: statistics.median_low(v[name] for v in per_op) for name in PER_LAYER}
    values.update(isolated)
    units = {name: spec[0] for name, spec in PER_LAYER.items()} | ISOLATED
    absent = {name for name, spec in PER_LAYER.items() if spec[1] in tracer.absent}
    print(f"per-layer metrics, median over {len(done)} traced operation(s):")
    for name, unit in units.items():
        mark = "  (absent: the program no longer has this layer's names)" if name in absent else ""
        print(f"  {name:34s} {values[name]:>14.6g} {unit}{mark}")
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    return {"correct": bad == 0, "attempted": len(ops), "failed": raised + bad, "metrics": metrics}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def steady(names, first_seed: int, runs: int, seconds: float) -> dict:
    """Rerun each workload with `runs` consecutive seeds; print medians and quartiles."""
    bounds = {}
    spec_path = os.path.join(os.path.dirname(BENCH_DIR), "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path, encoding="utf-8") as fh:
            bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    summary = {}
    for name in names:
        results = []
        for seed in range(first_seed, first_seed + runs):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
            print(f"{name} seed {seed}: " + ", ".join(
                f"{m} {v['value']:.4f}" for m, v in results[-1]["metrics"].items()), flush=True)
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        rows = {}
        print(f"{name}: {runs} runs, failed shares {shares}")
        print(f"  {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>8s} {'bound':>6s}")
        for metric in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, med, q3 = quartiles(values)
            spread = (q3 - q1) / med
            rows[metric] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": values}
            print(f"  {metric:12s} {med:10.4f} {q1:10.4f} {q3:10.4f} {spread:8.4f} "
                  f"{bounds.get(metric, float('nan')):6.3f}")
        summary[name] = {"runs": runs, "first_seed": first_seed, "seconds": seconds,
                         "failed_shares": shares, "metrics": rows}
        os.makedirs(WORK_ROOT, exist_ok=True)
        with open(os.path.join(WORK_ROOT, f"steady-{name}.json"), "w", encoding="utf-8") as fh:
            json.dump(summary[name], fh, indent=1)
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name; all of them with --steady")
    parser.add_argument("--seed", type=int, default=1, help="workload seed (inputs derive from it)")
    parser.add_argument("--seconds", type=float, default=55.0, help="measuring time of one run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run instead of end-to-end ones")
    parser.add_argument("--steady", type=int, default=0, metavar="RUNS",
                        help="rerun each workload RUNS times with consecutive seeds, "
                             "each in a fresh process, and print medians and quartiles")
    args = parser.parse_args(argv)
    load_program()
    from workloads import WORKLOADS

    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    if args.steady:
        names = [args.workload] if args.workload else list(WORKLOADS)
        print(json.dumps(steady(names, args.seed, args.steady, args.seconds)))
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    workload = WORKLOADS[args.workload]()
    workdir = os.path.join(WORK_ROOT, f"{workload.name}-s{args.seed}-t{args.trace}-p{os.getpid()}")
    os.makedirs(workdir)
    run = measure_traced if args.trace else measure
    result = run(workload, args.seed, args.seconds, workdir)
    if result["failed"] == 0:
        shutil.rmtree(workdir)
    else:
        print(f"inputs and records of the failed operations are kept in {workdir}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
