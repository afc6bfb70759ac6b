"""The benchmark's three workloads.

Each workload is a closed loop with one client: the next operation starts
when the previous one has finished.  A workload says

* which operations make up a run (``prepare``), drawn from the seed;
* how to run one operation, writing the program's output to a sink (``run``);
* which independently known answers a finished output must contain (``check``);
* which calls into the program get spans in the traced run (``instrument``).

A run makes two or more passes over the same operations, and the metrics
take each operation's median time over the passes, which damps what the
machine-speed calibration (child.py) does not catch.  ``pass_seconds`` and ``doc_seconds``
are measured at the seed commit on a 2-core machine with Python 3.11; they
size a run so that it takes about ``--seconds`` there.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random

from gamma_top import cli, documents, theoremlab
from gamma_top.gamma_core import gamma_closure, gamma_interior
from gamma_top.gamma_sets import gamma_open_family, regular_open_family, theta_families

SWEEP_CLAIMS = theoremlab.SAFE_CLAIMS + theoremlab.CONDITIONED_CLAIMS
CLAIM_SPANS = {cid: f"theoremlab.check_claim.{cid}" for cid in theoremlab.CLAIM_IDS}

# Spans that report self time and calls; the claim spans report self time only.
LAYER_SPANS = (
    "theoremlab.bridge_pairings",
    "gamma_core.Space",
    "gamma_core.operators",
    "gamma_sets.families",
    "theoremlab.check_invariants",
    "theoremlab.run_suite",
    "theoremlab.mine",
    "theoremlab.to_dict",
    "cli.emit",
    "finspace.enumerate_topologies",
    "gamma_core.operations_for",
    "documents.parse_space",
)


class OutputSink(io.TextIOBase):
    """A text stream that writes UTF-8 to a file and hashes it on the way,
    standing in for the stdout of ``gamma-top ... > file``."""

    def __init__(self, path):
        super().__init__()
        self._fh = open(path, "wb")
        self._sha = hashlib.sha256()
        self.bytes = 0

    def writable(self):
        return True

    def write(self, text):
        data = text.encode("utf-8")
        self._sha.update(data)
        self._fh.write(data)
        self.bytes += len(data)
        return len(text)

    def hexdigest(self):
        return self._sha.hexdigest()

    def close(self):
        self._fh.close()
        super().close()


def _cli(argv, sink) -> int:
    with contextlib.redirect_stdout(sink):
        return cli.main(argv)


def _expect(problems, what, got, want):
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


# The memoized per-space values the traced run may compute ahead of time,
# each under its own span, on workloads whose untraced run computes all of
# them anyway.  Claims that follow then read the memo.

def fill_operators(sp):
    for a in sp.ground.subsets():
        gamma_interior(sp, a)
        gamma_closure(sp, a)


def fill_families(sp):
    gamma_open_family(sp)
    regular_open_family(sp)
    theta_families(sp)


def _trace_claims(tracer):
    original = theoremlab.check_claim
    call = tracer.call

    def check_claim(sp, claim_id):
        return call(CLAIM_SPANS[claim_id], original, sp, claim_id)

    tracer.replace(theoremlab, "check_claim", check_claim)


class Sweep3Tables:
    """``full_sweep`` over every 3-point topology x every expansive table
    with the safe and conditioned claims and the invariants (9,048 spaces),
    the call of the tier-1 ``sweep3`` fixture.  Loads operators, families,
    the cheap claims and the invariants; never the net/filterbase bridge."""

    name = "sweep3-tables"
    pass_seconds = 6.8
    spaces_per_op = 9048
    # the indiscrete topology, the last one enumerated: 8 tables
    WARM_UP_TOPOLOGY = 28

    def prepare(self, run_dir, seed, seconds):
        return {"passes": [["sweep"]] * max(3, round(seconds / self.pass_seconds))}

    def reference_inputs(self, run_dir):
        return {"passes": [["sweep"]]}

    def warm_up(self, inputs):
        t = self.WARM_UP_TOPOLOGY
        theoremlab.full_sweep(3, ("all_tables",), SWEEP_CLAIMS, invariants=True,
                              topo_range=(t, t + 1))

    def run(self, inputs, key, sink):
        claims, invariants = theoremlab.full_sweep(3, ("all_tables",), SWEEP_CLAIMS,
                                                   invariants=True)
        payload = {"claims": claims.to_dict(), "invariants": invariants.to_dict()}
        sink.write(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        return None

    def check(self, key, text, exit_code):
        """Known answers from the README's Findings."""
        doc = json.loads(text)
        problems = []
        _expect(problems, "spaces", doc["claims"]["counts"]["spaces"], 9048)
        _expect(problems, "C-RO-INCL fails", doc["claims"]["tallies"]["C-RO-INCL"]["fails"], 576)
        stats = doc["invariants"]["stats"]
        _expect(problems, "cl_g idempotent", stats["cl_gamma_idempotent_everywhere"], 5672)
        _expect(problems, "cl_g within thetacl",
                stats["cl_gamma_within_theta_closure_everywhere"], 9048)
        _expect(problems, "closedness definitions agree",
                stats["closedness_definitions_agree_everywhere"], 9048)
        return problems

    def instrument(self, tracer):
        tracer.wrap_generator(theoremlab, "enumerate_topologies", "finspace.enumerate_topologies")
        tracer.wrap(theoremlab, "operations_for", "gamma_core.operations_for")
        make_space = theoremlab.Space
        call = tracer.call

        def space(*args):
            sp = call("gamma_core.Space", make_space, *args)
            call("gamma_core.operators", fill_operators, sp)
            call("gamma_sets.families", fill_families, sp)
            return sp

        tracer.replace(theoremlab, "Space", space)
        _trace_claims(tracer)
        tracer.wrap(theoremlab, "check_invariants", "theoremlab.check_invariants")
        # full_sweep computes run_suite's own work, the discrepancy
        # statistics, without going through run_suite
        tracer.wrap(theoremlab, "_space_discrepancies", "theoremlab.run_suite")
        tracer.wrap(theoremlab.SweepReport, "to_dict", "theoremlab.to_dict")
        tracer.wrap(theoremlab.InvariantReport, "to_dict", "theoremlab.to_dict")


class Verify4Docs:
    """``gamma-top verify <doc> --format machine`` with all 24 claims on
    space documents drawn by seed from the 4-point ``builtins,pivots``
    enumeration (2,775 spaces).  Single-space time to a verdict, dominated
    by the net/filterbase bridge."""

    name = "verify4-docs"
    doc_seconds = 0.085
    # two passes over more documents rather than three over fewer: the
    # draw varies more from seed to seed than one document's time does
    passes = 2
    spaces_per_op = 1

    @staticmethod
    def population() -> dict:
        return {f"{ti}-{oi}": sp
                for ti, oi, sp in theoremlab.enumerate_spaces(4, ("builtins", "pivots"))}

    def prepare(self, run_dir, seed, seconds):
        """Draw one document from each of ``count`` equal slices of the
        enumeration order, which keeps the mix of small and large
        topologies alike from seed to seed, plus one for the warm-up.
        Write them before any child starts; every pass verifies them in
        the same order."""
        spaces = self.population()
        keys = list(spaces)
        count = max(21, round(seconds / self.passes / self.doc_seconds))
        rng = random.Random(seed)
        drawn = [keys[rng.randrange(i * len(keys) // count, (i + 1) * len(keys) // count)]
                 for i in range(count)]
        rng.shuffle(drawn)
        taken = set(drawn)
        warm_up = rng.choice([k for k in keys if k not in taken])
        self._write(run_dir, spaces, [warm_up] + drawn)
        return {"docs": str(run_dir / "docs"), "warm_up": warm_up,
                "passes": [drawn] * self.passes}

    def reference_inputs(self, run_dir):
        spaces = self.population()
        keys = list(spaces)
        self._write(run_dir, spaces, keys)
        return {"docs": str(run_dir / "docs"), "warm_up": keys[0], "passes": [keys]}

    @staticmethod
    def _write(run_dir, spaces, keys):
        doc_dir = run_dir / "docs"
        doc_dir.mkdir(parents=True, exist_ok=True)
        for key in keys:
            (doc_dir / f"{key}.json").write_text(documents.serialize_space(spaces[key]),
                                                 encoding="utf-8")

    def warm_up(self, inputs):
        self.run(inputs, inputs["warm_up"], io.StringIO())

    def run(self, inputs, key, sink):
        return _cli(["verify", f"{inputs['docs']}/{key}.json", "--format", "machine"], sink)

    def check(self, key, text, exit_code):
        """Exit 1 exactly when a safe claim failed; the gamma_open_cl+standard
        pairing holds for both bridge propositions."""
        doc = json.loads(text)
        problems = []
        safe_failed = any(v["status"] == "fails" and v["claim"] in theoremlab.SAFE_CLAIMS
                          for v in doc["verdicts"])
        _expect(problems, "exit code", exit_code, 1 if safe_failed else 0)
        bridge = [v for v in doc["verdicts"] if v["claim"] in ("C-P4.10", "C-P4.11")]
        _expect(problems, "bridge verdicts", len(bridge), 2)
        for v in bridge:
            _expect(problems, f"{v['claim']} gamma_open_cl+standard",
                    v["notes"]["pairings"]["gamma_open_cl+standard"], "holds")
        return problems

    def instrument(self, tracer):
        parse = documents.parse_space
        call = tracer.call

        def parse_space(text):
            sp = call("documents.parse_space", parse, text)
            call("gamma_core.operators", fill_operators, sp)
            call("gamma_sets.families", fill_families, sp)
            call("theoremlab.bridge_pairings", theoremlab.bridge_pairings, sp)
            return sp

        tracer.replace(documents, "parse_space", parse_space)
        _trace_claims(tracer)
        tracer.wrap(theoremlab, "run_suite", "theoremlab.run_suite")
        tracer.wrap(theoremlab.VerificationReport, "to_dict", "theoremlab.to_dict")
        tracer.wrap(cli, "_emit", "cli.emit")


class Mine3Tables:
    """``gamma-top mine --n 3 --ops all_tables --predicate P --format
    machine`` for each separation predicate in turn.  Builds the 9,048
    spaces per predicate, reads only the operators the predicate needs,
    and writes about 32 MB of witness JSON per pass."""

    name = "mine3-tables"
    pass_seconds = 4.6
    spaces_per_op = 9048

    def prepare(self, run_dir, seed, seconds):
        passes = max(3, round(seconds / self.pass_seconds))
        return {"passes": [sorted(theoremlab.SEPARATIONS)] * passes}

    def reference_inputs(self, run_dir):
        return {"passes": [sorted(theoremlab.SEPARATIONS)]}

    def warm_up(self, inputs):
        predicate = sorted(theoremlab.SEPARATIONS)[0]
        _cli(["mine", "--n", "2", "--ops", "all_tables", "--predicate", predicate,
              "--format", "machine"], io.StringIO())

    def run(self, inputs, key, sink):
        return _cli(["mine", "--n", "3", "--ops", "all_tables", "--predicate", key,
                     "--format", "machine"], sink)

    def check(self, key, text, exit_code):
        """Known answers from the README's Findings."""
        doc = json.loads(text)
        problems = []
        _expect(problems, "exit code", exit_code, 0)
        _expect(problems, "count", doc["count"], len(doc["witnesses"]))
        if key == "theta_open_not_regular_open":
            _expect(problems, "witnesses", doc["count"], 240)
        if key == "regular_open_not_gamma_open":
            hit = {(w["topology_index"], w["operation_index"]) for w in doc["witnesses"]}
            _expect(problems, "distinct spaces", len(hit), 576)
        return problems

    def instrument(self, tracer):
        tracer.wrap(theoremlab, "mine", "theoremlab.mine")
        tracer.wrap(theoremlab.MinedWitness, "to_dict", "theoremlab.to_dict")
        tracer.wrap(cli, "_emit", "cli.emit")


WORKLOADS = {w.name: w for w in (Sweep3Tables(), Verify4Docs(), Mine3Tables())}
