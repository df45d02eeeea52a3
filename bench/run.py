"""The ckinv benchmark: four closed-loop workloads measured end to end.

Run from the repository root:

    python3 bench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Each workload is a closed loop: one client, in one process and one thread,
starts the next item only after the previous one has finished (``cli``
runs one child process at a time).  A round is one pass over a batch of
items made from ``--seed``; rounds repeat until the next one would overrun
``--seconds``.  Outputs are checked after the timed rounds, and an item that
raised or failed its check counts as failed.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` spends half
the time untraced and half with every public call of the layers wrapped in
a span (see ``spans.py``; ``cli`` instead runs each command through
``cli_probe.py``), and reports per-layer metrics per round plus how much
slower the traced rounds ran.  The last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
line before it records the environment and the item counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from spans import KERNELS, LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

END_TO_END = {"setup_s": "s", "wall_s": "s", "items_per_s": "1/s",
              "item_p50_s": "s", "peak_rss_mb": "MB"}

# What each per-layer metric should move, and on which workload:
#   intmat.smith_diagonal.*      items_per_s on realize (most of its time)
#   intmat.smith_normal_form.*   wall_s on large (iota_1 order); 0 on realize
#   intmat.hermite_normal_form.* item_p50_s on corpus; 0 on realize and large
#   intmat.max_dim, .peak_bits   wall_s on large
#   ck.eliminations_per_report   items_per_s on corpus and wall_s on large,
#                                not realize (which never calls invariants)
#   ck.validate, realize.*       items_per_s on realize
#   other ck.*, presented, groups  item_p50_s on corpus
#   cli.*                        item_p50_s on cli
# trace.overhead_ratio is the median traced round time over the untraced one.
PER_LAYER = {f"{k}.{m}": u for k in KERNELS
             for m, u in (("calls", "count"), ("self_s", "s"),
                          ("share", "%"))}
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})
PER_LAYER.update({
    "intmat.max_dim": "count", "intmat.peak_bits": "bits",
    "ck.invariants.calls": "count", "ck.eliminations_per_report": "count",
    "ck.validate.self_s": "s", "ck.invariants.self_s": "s",
    "ck.five_term_sequence.self_s": "s", "ck.is_isomorphic_ck.self_s": "s",
    "realize.realize_k0.self_s": "s",
    "cli.interp_s": "s", "cli.import_s": "s", "cli.command_s": "s",
    "trace.overhead_ratio": "x",
})

# Size and density grid of the acceptance corpus.
CORPUS_SIZES = range(2, 13)
CORPUS_DENSITIES = tuple(0.15 + 0.08 * k for k in range(8))

# The criterion-10 space: rank <= 3, at most 3 factors, each in 2..12.
TARGET_SPACE = tuple((r, f) for r in range(4) for k in range(4)
                     for f in itertools.product(range(2, 13), repeat=k))


def _random_matrix(ck, rng: random.Random):
    return ck.gen_random_irreducible(rng.choice(CORPUS_SIZES),
                                     rng.choice(CORPUS_DENSITIES),
                                     rng.randrange(2 ** 31))


def _random_targets(realize, rng: random.Random, count: int):
    return [realize.RealizationTarget(r, f)
            for r, f in rng.sample(TARGET_SPACE, count)]


class Corpus:
    """Many small matrices: invariants, five-term sequence, both verdicts.

    The batch walks the acceptance corpus's size-density grid (11 x 8
    cells) twice, so only the matrices, not the mix of sizes, depend on
    the seed.
    """

    def __init__(self, seed: int, tiny: bool):
        from ckinv import ck
        self.ck, self.seed = ck, seed
        cells = len(CORPUS_SIZES) * len(CORPUS_DENSITIES)
        self.size = 8 if tiny else 2 * cells

    def setup(self):
        rng = random.Random(f"corpus:{self.seed}")
        mats = [self.ck.gen_random_irreducible(
                    CORPUS_SIZES[i % len(CORPUS_SIZES)],
                    CORPUS_DENSITIES[i % len(CORPUS_DENSITIES)],
                    rng.randrange(2 ** 31))
                for i in range(self.size)]
        # (matrix, partner, partner's position in the batch)
        self.items = []
        for a in mats:
            j = rng.randrange(self.size)
            self.items.append((a, mats[j], j))

    def batch(self, r: int):
        return self.items

    def run_item(self, item):
        a, b, _ = item
        ck = self.ck
        return (ck.invariants(a), ck.five_term_sequence(a),
                ck.is_isomorphic_ck(a, b), ck.is_stably_isomorphic_ck(a, b))

    def check(self, items, outs):
        oks = []
        for (_, _, j), out in zip(items, outs):
            if isinstance(out, BaseException) or \
                    isinstance(outs[j], BaseException):
                oks.append(False)
                continue
            rep, seq, iso, stable = out
            rb = outs[j][0]
            oks.append(
                rep.ext_s1.free_rank == rep.ext_s0.free_rank + 1
                and rep.k0.free_rank == rep.k1.free_rank
                and rep.pi1_aut == rep.pi2_aut.direct_sum(rep.k0.torsion)
                and rep.pi1_aut_stable == rep.pi2_aut_stable
                and seq.verified and all(seq.nodes_exact)
                and iso == (rep.pi1_aut == rb.pi1_aut
                            and rep.pi2_aut == rb.pi2_aut)
                and stable == (rep.k0 == rb.k0)
                and (stable or not iso))
        return oks


class Realize:
    """realize_k0 on targets drawn without replacement from the criterion-10
    space, so the mix matches the acceptance replay."""

    def __init__(self, seed: int, tiny: bool):
        from ckinv import ck, intmat, realize
        self.ck, self.intmat, self.realize = ck, intmat, realize
        self.seed, self.size = seed, 8 if tiny else 400
        self._verdicts = {}

    def setup(self):
        self.items = _random_targets(
            self.realize, random.Random(f"realize:{self.seed}"), self.size)

    def batch(self, r: int):
        return self.items

    def run_item(self, target):
        return self.realize.realize_k0(target)

    def _ok(self, target, matrix) -> bool:
        # Every round repeats the batch, so each distinct output is checked
        # once: ext_w1 = coker(I - A) must be the target group.
        key = (target, matrix.entries.tobytes())
        if key not in self._verdicts:
            self._verdicts[key] = self.intmat.cokernel_invariants(
                self.ck.i_minus(matrix.entries)) == target.group()
        return self._verdicts[key]

    def check(self, items, outs):
        return [not isinstance(m, BaseException) and self._ok(t, m)
                for t, m in zip(items, outs)]


class Large:
    """invariants on n = 60, 80, 100 at density 0.3.

    The cost at n = 100 varies by a fifth from one matrix to the next, so
    each round draws new matrices and a run averages over several.
    """

    def __init__(self, seed: int, tiny: bool):
        from ckinv import ck
        self.ck, self.seed = ck, seed
        self.sizes = (6, 8, 10) if tiny else (60, 80, 100)
        self._batches = {}

    def setup(self):
        self._batches = {}
        self.batch(0)

    def batch(self, r: int):
        if r not in self._batches:
            rng = random.Random(f"large:{self.seed}:{r}")
            self._batches[r] = [
                self.ck.gen_random_irreducible(n, 0.3, rng.randrange(2 ** 31))
                for n in self.sizes]
        return self._batches[r]

    def run_item(self, a):
        return self.ck.invariants(a)

    def check(self, items, outs):
        return [not isinstance(rep, BaseException)
                and rep.ext_s1.free_rank == rep.ext_s0.free_rank + 1
                and rep.k0.free_rank == rep.k1.free_rank
                and rep.n == a.n for a, rep in zip(items, outs)]


class Cli:
    """ckinv invariants, compare, exactseq and realize processes in turn."""

    def __init__(self, seed: int, tiny: bool):
        from ckinv import ck, cli, realize
        self.ck, self.cli, self.realize = ck, cli, realize
        self.seed, self.per_command = seed, 1 if tiny else 2
        self.workdir = Path(tempfile.mkdtemp(prefix=".bench-cli-", dir=ROOT))
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.probe = False
        self.probes = {"import": [], "command": []}
        self._expected = {}

    def setup(self):
        rng = random.Random(f"cli:{self.seed}")
        self.items = []
        targets = _random_targets(self.realize, rng, self.per_command)
        for t in targets:
            paths = []
            for j in range(3):
                m = _random_matrix(self.ck, rng)
                path = self.workdir / f"m{len(self.items)}_{j}.txt"
                path.write_text(self.cli.format_matrix_text(m.entries))
                paths.append(str(path))
            self.items += [
                ("invariants", "--json", paths[0]),
                ("compare", paths[1], paths[2]),
                ("exactseq", paths[0]),
                ("realize", "--rank", str(t.rank),
                 "--torsion", ",".join(map(str, t.factors)))]

    def batch(self, r: int):
        return self.items

    def _spawn(self, args):
        return subprocess.run([sys.executable, *args], cwd=ROOT, env=self.env,
                              capture_output=True, text=True, timeout=120)

    def run_item(self, argv):
        if not self.probe:
            proc = self._spawn(["-m", "ckinv.cli", *argv])
            return proc.returncode, proc.stdout
        proc = self._spawn([str(Path(__file__).with_name("cli_probe.py")),
                            *argv])
        timing = json.loads(proc.stderr.strip().splitlines()[-1])
        self.probes["import"].append(timing["import_s"])
        self.probes["command"].append(timing["command_s"])
        return proc.returncode, proc.stdout

    def interp_s(self, count: int) -> float:
        """Median wall time of ``count`` bare interpreter starts."""
        times = []
        for _ in range(count):
            t = perf_counter()
            self._spawn(["-c", "pass"])
            times.append(perf_counter() - t)
        return statistics.median(times)

    def _expect(self, argv) -> str:
        if argv not in self._expected:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = self.cli.main(list(argv))
            self._expected[argv] = buf.getvalue() if rc == 0 else None
        return self._expected[argv]

    def check(self, items, outs):
        return [not isinstance(out, BaseException) and out[0] == 0
                and out[1] == self._expect(argv)
                for argv, out in zip(items, outs)]

    def close(self):
        for path in self.workdir.iterdir():
            path.unlink()
        self.workdir.rmdir()


WORKLOADS = {"corpus": Corpus, "realize": Realize, "large": Large,
             "cli": Cli}


@dataclass
class Round:
    time_s: float
    latencies: list[float]
    failed: int


def run_rounds(wl, seconds: float, tracer: Tracer | None = None):
    """Rounds until the next would overrun ``seconds``; at least one.

    Batch generation, output checks and tracer bookkeeping happen outside
    the timed region; outputs are dropped once checked.
    """
    rounds = []
    shown = False
    start = perf_counter()
    while True:
        items = wl.batch(len(rounds))
        outs, lats = [], []
        if tracer:
            rspan = tracer.open(tracer.intern("bench.round"))
            ispan_id = tracer.intern("bench.item")
        t_round = perf_counter()
        for item in items:
            t = perf_counter()
            if tracer:
                ispan = tracer.open(ispan_id)
            try:
                out = wl.run_item(item)
            except Exception as e:  # counted as failed; the first is shown
                if not shown:
                    traceback.print_exc()
                    shown = True
                out = e
            if tracer:
                tracer.close(ispan)
            lats.append(perf_counter() - t)
            outs.append(out)
        dt = perf_counter() - t_round
        if tracer:
            tracer.close(rspan)
        if tracer:
            tracer.active = False  # the checks are not traced
        rounds.append(Round(dt, lats,
                            sum(not ok for ok in wl.check(items, outs))))
        if tracer:
            tracer.active = True
        elapsed = perf_counter() - start
        if elapsed + statistics.median(r.time_s for r in rounds) > seconds:
            return rounds


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        path = ROOT / ".git" / ref[5:]
        if path.is_file():
            return path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed: int) -> dict:
    import numpy
    digest = hashlib.sha256()
    for path in sorted((SRC / "ckinv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "platform": platform.platform(),
            "commit": _commit(), "source_sha256": digest.hexdigest(),
            "seed": seed}


def end_to_end(rounds, setup_s: float, children: bool):
    lats = sorted(x for r in rounds for x in r.latencies)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if children
                               else resource.RUSAGE_SELF)
    metrics = {
        "setup_s": setup_s,
        "wall_s": statistics.median(r.time_s for r in rounds),
        "items_per_s": len(lats) / sum(r.time_s for r in rounds),
        "item_p50_s": statistics.median(lats),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }
    info = {"items": len(lats), "rounds": len(rounds),
            "batch_items": len(rounds[0].latencies)}
    if len(lats) >= 100:
        info["item_p90_s"] = statistics.quantiles(lats, n=10)[-1]
    return metrics, info


def per_layer(tracer: Tracer) -> dict:
    """Medians over traced rounds of per-round layer figures."""
    rounds = tracer.summary("bench.round", "ck.invariants")
    per_round = []
    for agg in rounds:
        names, wall = agg["names"], agg["duration_s"]

        def calls(n):
            return names.get(n, (0, 0.0))[0]

        def self_s(n):
            return names.get(n, (0, 0.0))[1]

        m = {}
        for k in KERNELS:
            m[f"{k}.calls"] = calls(k)
            m[f"{k}.self_s"] = self_s(k)
            m[f"{k}.share"] = 100.0 * self_s(k) / wall
        for layer in LAYERS:
            m[f"{layer}.self_s"] = sum((s for n, (_, s) in names.items()
                                        if n.startswith(layer + ".")), 0.0)
        inv = calls("ck.invariants")
        m["ck.invariants.calls"] = inv
        m["ck.eliminations_per_report"] = \
            agg["kernels_under"] / inv if inv else 0.0
        for n in ("ck.validate", "ck.invariants", "ck.five_term_sequence",
                  "ck.is_isomorphic_ck", "realize.realize_k0"):
            m[f"{n}.self_s"] = self_s(n)
        per_round.append(m)
    out = {k: statistics.median(m[k] for m in per_round)
           for k in per_round[0]}
    out["intmat.max_dim"] = tracer.max_dim
    out["intmat.peak_bits"] = tracer.peak_bits
    return out


def traced_run(wl, seconds: float, children: bool):
    """Half the time untraced, half traced; per-layer metrics and rounds."""
    plain = run_rounds(wl, seconds / 2)
    tracer = Tracer()
    metrics = {name: 0.0 for name in PER_LAYER}
    if children:
        wl.probe = True
        traced = run_rounds(wl, seconds / 2)
        metrics["cli.interp_s"] = wl.interp_s(10)
        metrics["cli.import_s"] = statistics.median(wl.probes["import"])
        metrics["cli.command_s"] = statistics.median(wl.probes["command"])
    else:
        tracer.install()
        try:
            traced = run_rounds(wl, seconds / 2, tracer)
        finally:
            tracer.uninstall()
        metrics.update(per_layer(tracer))
    k = min(len(plain), len(traced))
    metrics["trace.overhead_ratio"] = (
        statistics.median(r.time_s for r in traced[:k])
        / statistics.median(r.time_s for r in plain[:k]))
    info = {"rounds_untraced": len(plain), "rounds_traced": len(traced),
            "spans": len(tracer.name)}
    return metrics, info, plain + traced


def _run(args) -> dict:
    t0 = perf_counter()
    import ckinv  # noqa: F401  (import cost is part of set-up)
    if args.workload == "cli":
        import ckinv.cli  # noqa: F401
    import_s = perf_counter() - t0
    wl = WORKLOADS[args.workload](args.seed, args.tiny)
    children = args.workload == "cli"
    try:
        gen = []
        for _ in range(3):
            t = perf_counter()
            wl.setup()
            gen.append(perf_counter() - t)
        if args.trace:
            metrics, info, rounds = traced_run(wl, args.seconds, children)
        else:
            rounds = run_rounds(wl, args.seconds)
            metrics, info = end_to_end(
                rounds, import_s + statistics.median(gen), children)
    finally:
        if children:
            wl.close()
    attempted = sum(len(r.latencies) for r in rounds)
    failed = sum(r.failed for r in rounds)
    info["fail_ratio"] = failed / attempted
    units = PER_LAYER if args.trace else END_TO_END
    return {"env": environment(args.seed), "workload": args.workload,
            "info": info,
            "result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed,
                       "metrics": {k: {"value": metrics[k], "unit": u}
                                   for k, u in units.items()}}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every batch (for the smoke test)")
    args = parser.parse_args(argv)
    if not (SRC / "ckinv" / "__init__.py").is_file():
        print(f"bench: no ckinv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    out = _run(args)
    result = out.pop("result")
    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps(out))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
