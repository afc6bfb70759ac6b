import hashlib
import json
import os
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

import gamma_top
from gamma_top import cli, documents, jsonout, theoremlab
from gamma_top.finspace import MAX_POINTS, PointSet, validate_topology
from gamma_top.gamma_core import GammaNotExpansive, GammaOperation, Space
from gamma_top.gamma_sets import gamma_open_family
from gamma_top.theoremlab import CONDITIONED_CLAIMS, parse_claims
from test_output_hashes import GOLDEN

ABC = PointSet(("a", "b", "c"))


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def doc_path(name):
    return str(documents.bundled_path(name))


def test_round_trip_bundled():
    for name in documents.BUNDLED:
        sp = documents.load_bundled(name)
        assert documents.parse_space(documents.serialize_space(sp)) == sp


def test_round_trip_table_space():
    top = validate_topology(ABC, [0, 1, 7])
    sp = Space(ABC, top, GammaOperation("table", values=(0, 3, 7)))
    assert documents.parse_space(documents.serialize_space(sp)) == sp


def test_parse_space_gamma_open_family(example3_2):
    fam = gamma_open_family(example3_2)
    labels = [example3_2.ground.labels_of(f) for f in fam]
    assert labels == [(), ("b",), ("a", "b"), ("a", "c"), ("a", "b", "c")]


def test_parse_syntax_error_carries_line():
    with pytest.raises(documents.DocumentSyntaxError) as err:
        documents.parse_space('{\n  "points": [,]\n}')
    assert err.value.line == 2


def test_parse_unknown_label():
    text = json.dumps({"points": ["a"], "opens": [[], ["z"]], "gamma": {"kind": "identity"}})
    with pytest.raises(documents.UnknownLabel):
        documents.parse_space(text)


def test_parse_topology_invalid():
    text = json.dumps({"points": ["a", "b"], "opens": [[]], "gamma": {"kind": "identity"}})
    with pytest.raises(documents.TopologyInvalid):
        documents.parse_space(text)


def test_parse_rejects_non_expansive_table():
    text = json.dumps(
        {
            "points": ["a", "b"],
            "opens": [[], ["a"], ["a", "b"]],
            "gamma": {
                "kind": "table",
                "table": [
                    {"open": [], "value": []},
                    {"open": ["a"], "value": ["b"]},
                    {"open": ["a", "b"], "value": ["a", "b"]},
                ],
            },
        }
    )
    with pytest.raises(GammaNotExpansive):
        documents.parse_space(text)


def test_parse_rejects_wrong_shapes():
    with pytest.raises(documents.DocumentSyntaxError):
        documents.parse_space(json.dumps({"points": ["a"], "opens": [[]]}))
    with pytest.raises(documents.DocumentSyntaxError):
        documents.parse_space(
            json.dumps(
                {
                    "points": ["a"],
                    "opens": [[], ["a"]],
                    "gamma": {"kind": "pivot", "pivot": "a", "in": "id", "out": "sideways"},
                }
            )
        )
    with pytest.raises(documents.DocumentSyntaxError):
        documents.parse_space(
            json.dumps({"points": ["a"], "opens": [[], ["a"]], "gamma": {"kind": "mystery"}})
        )
    # table must cover the opens exactly
    with pytest.raises(documents.DocumentSyntaxError):
        documents.parse_space(
            json.dumps(
                {
                    "points": ["a"],
                    "opens": [[], ["a"]],
                    "gamma": {"kind": "table", "table": [{"open": ["a"], "value": ["a"]}]},
                }
            )
        )
    # one entry per open, but {b} is not open (in place of {a}), or {a}
    # is listed twice (in place of X)
    for listed in ([[], ["b"], ["a", "b"]], [[], ["a"], ["a"]]):
        table = [{"open": m, "value": ["a", "b"]} for m in listed]
        with pytest.raises(documents.DocumentSyntaxError):
            documents.parse_space(
                json.dumps(
                    {
                        "points": ["a", "b"],
                        "opens": [[], ["a"], ["a", "b"]],
                        "gamma": {"kind": "table", "table": table},
                    }
                )
            )


def test_cli_analyze_machine_output(capsys):
    code, out, err = run_cli(capsys, "analyze", doc_path("example3_2"), "--format", "machine")
    assert code == 0 and not err
    payload = json.loads(out)
    assert payload["families"]["gamma_open"] == [[], ["b"], ["a", "b"], ["a", "c"], ["a", "b", "c"]]
    assert payload["families"]["regular_open"] == [[], ["b"], ["a", "c"], ["a", "b", "c"]]
    assert payload["flags"]["extremally_disconnected"] is True
    code2, out2, _ = run_cli(capsys, "analyze", doc_path("example3_2"), "--format", "machine")
    assert out2 == out  # byte-stable


def test_cli_analyze_identity_gamma_open_equals_opens(capsys, tmp_path):
    doc = {"points": ["a", "b"], "opens": [[], ["a"], ["a", "b"]], "gamma": {"kind": "identity"}}
    path = tmp_path / "space.json"
    path.write_text(json.dumps(doc))
    code, out, _ = run_cli(capsys, "analyze", str(path), "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    assert payload["families"]["gamma_open"] == payload["families"]["opens"]


def test_cli_verify_file_exit_codes(capsys):
    code, out, _ = run_cli(capsys, "verify", doc_path("example3_2"))
    assert code == 0
    assert "C-T3.9-FWD" in out
    # a non-safe claim failing does not flip the exit code
    code, out, _ = run_cli(capsys, "verify", doc_path("example3_5"))
    assert code == 0
    assert "C-CHAIN-RO-TO" in out


def test_cli_verify_enumeration_safe_pass(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--enumerate", "2", "--ops", "builtins,pivots", "--format", "machine"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"]["topologies"] == 4
    assert all(t["fails"] == 0 for t in payload["tallies"].values())


def test_cli_verify_enumeration_finds_safe_counterexamples(capsys):
    code, out, _ = run_cli(
        capsys,
        "verify", "--enumerate", "3", "--ops", "all_tables",
        "--claims", "C-RO-INCL", "--format", "machine",
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["tallies"]["C-RO-INCL"]["fails"] > 0
    first = payload["failures"][0]
    assert first["witness"]["part"] == "regular_open_not_gamma_open"


def test_cli_verify_text_builds_no_machine_payload(capsys, monkeypatch):
    runs = (("verify", doc_path("example3_5")),
            ("verify", "--enumerate", "2", "--ops", "builtins,pivots"))
    expected = [run_cli(capsys, *argv) for argv in runs]

    def no_payload(self):
        raise AssertionError("text output built the machine payload")

    monkeypatch.setattr(theoremlab.VerificationReport, "to_dict", no_payload)
    monkeypatch.setattr(theoremlab.SweepReport, "to_dict", no_payload)
    assert [run_cli(capsys, *argv) for argv in runs] == expected
    assert [code for code, _, _ in expected] == [0, 0]


def test_cli_machine_output_builds_no_text_report(capsys, monkeypatch):
    # each text report below prints witnesses through json.dumps
    runs = (("verify", doc_path("example3_5")),
            ("verify", "--enumerate", "2", "--ops", "all_tables", "--claims", "all"),
            ("mine", "--n", "2", "--ops", "all_tables", "--predicate", "gamma_open_not_regular_open"))
    expected = [run_cli(capsys, *argv, "--format", "machine") for argv in runs]
    for argv in runs:
        assert '{"subset": [' in run_cli(capsys, *argv)[1]

    def no_text(*args, **kwargs):
        raise AssertionError("machine output built the text report")

    monkeypatch.setattr(cli.json, "dumps", no_text)
    assert [run_cli(capsys, *argv, "--format", "machine") for argv in runs] == expected


def test_cli_verify_argument_validation(capsys):
    code, _, err = run_cli(capsys, "verify", "--enumerate", "2")
    assert code == 2 and "ops" in err
    code, _, err = run_cli(capsys, "verify")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", doc_path("example3_2"), "--claims", "C-FAKE")
    assert code == 2 and "C-FAKE" in err
    code, out, err = run_cli(capsys, "verify", doc_path("example3_2"), "--ops", "builtins")
    assert (code, out) == (2, "") and "--ops needs --enumerate" in err


def test_cli_empty_claim_list_is_an_input_error(capsys):
    # an empty operation mode list too: a sweep over no spaces would pass
    # every claim, and mine would certify an absence
    for argv in (
        ("verify", "--enumerate", "3", "--ops", "all_tables", "--claims", ","),
        ("verify", doc_path("example3_2"), "--claims", ""),
        ("verify", "--enumerate", "3", "--ops", ","),
        ("mine", "--n", "3", "--ops", ",", "--predicate", "gamma_open_not_regular_open"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("error:") and "empty" in err, argv


def test_cli_repeated_claim_is_an_input_error(capsys):
    for argv in (
        ("verify", "--enumerate", "2", "--ops", "builtins", "--claims", "C-T3.6,C-T3.6"),
        ("verify", doc_path("example3_2"), "--claims", "C-T3.6, C-RO-INCL,C-T3.6"),
    ):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == "error: claim 'C-T3.6' is named twice\n", argv


def test_cli_deeply_nested_document_is_an_input_error(capsys, tmp_path):
    # exit 1 would mean a safe claim failed
    path = tmp_path / "deep.json"
    path.write_text("[" * 200000 + "]" * 200000, encoding="utf-8")
    for command in ("verify", "analyze"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (2, ""), command
        assert err == "error: document is nested too deeply\n", command


def test_cli_mine(capsys):
    code, out, _ = run_cli(
        capsys,
        "mine", "--n", "3", "--ops", "builtins", "--predicate", "regular_open_not_clopen",
        "--format", "machine",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == len(payload["witnesses"]) > 0
    # an empty result is still exit 0
    code, out, _ = run_cli(
        capsys,
        "mine", "--n", "1", "--ops", "builtins",
        "--predicate", "gamma_open_not_regular_open", "--format", "machine",
    )
    assert code == 0
    assert json.loads(out)["count"] == 0


def test_cli_mine_unknown_predicate(capsys):
    code, _, err = run_cli(capsys, "mine", "--n", "2", "--ops", "builtins", "--predicate", "nope")
    assert code == 2 and "unknown predicate" in err


def test_cli_audit(capsys):
    code, out, _ = run_cli(capsys, "audit", "--example", "3.16", "--format", "machine")
    assert code == 0
    payload = json.loads(out)
    families = {f["family"]: f for f in payload["families"]}
    assert not families["theta_open"]["match"]
    assert payload["qualitative"]["supported_in_space"] is False
    code2, out2, _ = run_cli(capsys, "audit", "--example", "3.16", "--format", "machine")
    assert out2 == out


def test_cli_bad_inputs(capsys):
    code, _, err = run_cli(capsys, "analyze", "/no/such/file.json")
    assert code == 2
    code, _, err = run_cli(capsys, "verify", "--enumerate", "9", "--ops", "builtins")
    assert code == 2


def test_cli_threaded_run_matches_sequential(capsys, monkeypatch):
    # GAMMA_TOP_THREADS once set a worker count.  Every command is now one
    # walk in one process, so the variable is ignored, whatever it holds
    for args in (
        ("verify", "--enumerate", "2", "--ops", "builtins,pivots", "--format", "machine"),
        ("mine", "--n", "2", "--ops", "all_tables", "--predicate", "regular_open_not_gamma_open",
         "--format", "machine"),
    ):
        monkeypatch.delenv("GAMMA_TOP_THREADS", raising=False)
        unset = run_cli(capsys, *args)
        for value in ("2", "x"):
            monkeypatch.setenv("GAMMA_TOP_THREADS", value)
            assert run_cli(capsys, *args) == unset, value


def test_cli_builds_its_parser_once(capsys):
    parser = cli.build_parser()
    assert run_cli(capsys, "audit", "--example", "3.2")[0] == cli.EXIT_OK
    assert run_cli(capsys, "analyze", doc_path("example3_2"))[0] == cli.EXIT_OK
    assert cli.build_parser() is parser


def test_cli_out_of_memory_and_interrupt_have_their_own_codes(capsys, monkeypatch):
    def out_of_memory(args):
        raise MemoryError

    def interrupted(args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "cmd_analyze", out_of_memory)
    code, _, err = run_cli(capsys, "analyze", doc_path("example3_2"))
    assert code == cli.EXIT_MEMORY == 3
    assert "out of memory" in err
    monkeypatch.setattr(cli, "cmd_analyze", interrupted)
    code, _, err = run_cli(capsys, "analyze", doc_path("example3_2"))
    assert code == cli.EXIT_INTERRUPTED == 130
    assert code != cli.EXIT_COUNTEREXAMPLE
    # and on the enumeration path, raised inside the sweep
    enumeration = ("verify", "--enumerate", "2", "--ops", "builtins")
    for error, want, message in ((MemoryError, cli.EXIT_MEMORY, "out of memory"),
                                 (KeyboardInterrupt, cli.EXIT_INTERRUPTED, "interrupted")):
        def raising(*args, **kwargs):
            raise error

        monkeypatch.setattr(theoremlab, "full_sweep", raising)
        code, _, err = run_cli(capsys, *enumeration)
        assert code == want and message in err, error


def test_cli_internal_error_is_not_a_counterexample(capsys, monkeypatch):
    # a ValueError too: bad input raises its own subclass, so a bare one is a bug
    for error in (TypeError, ValueError):
        def broken(*args, **kwargs):
            raise error("a bug")

        # a file command, and the enumeration path, raised inside the sweep
        monkeypatch.setattr(theoremlab, "run_suite", broken)
        monkeypatch.setattr(theoremlab, "full_sweep", broken)
        for argv in (("verify", doc_path("example3_2")),
                     ("verify", "--enumerate", "2", "--ops", "builtins")):
            code, _, err = run_cli(capsys, *argv)
            assert code == cli.EXIT_SOFTWARE == 70, (error, argv)
            assert code != cli.EXIT_COUNTEREXAMPLE
            assert "Traceback" in err and f"{error.__name__}: a bug" in err, (error, argv)


def test_cli_internal_error_after_output_began(capsys, monkeypatch):
    # machine mine makes each record as it is written, so a bug met on the
    # third record comes after stdout has begun: the exit code still says
    # it, and what was written is a prefix of the pinned output
    argv = ("mine", "--n", "3", "--ops", "builtins,pivots",
            "--predicate", "gamma_open_not_regular_open", "--format", "machine")
    code, pinned, _ = run_cli(capsys, *argv)
    assert (hashlib.sha256(pinned.encode()).hexdigest(), code) == GOLDEN["mine-gamma_open_not_regular_open-t1"]
    to_dict = theoremlab.MinedWitness.to_dict
    made = []

    def third_fails(hit):
        made.append(None)
        if len(made) == 3:
            raise RuntimeError("a bug")
        return to_dict(hit)

    monkeypatch.setattr(theoremlab.MinedWitness, "to_dict", third_fails)
    # batches of a few chunks, so the first records reach stdout before the third is made
    monkeypatch.setattr(jsonout, "BATCH_CHUNKS", 8)
    code, out, err = run_cli(capsys, *argv)
    assert code == cli.EXIT_SOFTWARE == 70
    assert "Traceback" in err and "RuntimeError: a bug" in err
    assert '"topology_index"' in out and pinned.startswith(out) and len(out) < len(pinned)
    assert len(made) == 3


def test_cli_unknown_operation_mode_is_an_input_error(capsys):
    for argv in (("verify", "--enumerate", "2", "--ops", "bogus"),
                 ("verify", "--enumerate", "2", "--ops", ","),
                 ("mine", "--n", "2", "--ops", "builtins,bogus", "--predicate", "regular_open_not_clopen"),
                 ("mine", "--n", "2", "--ops", ",", "--predicate", "regular_open_not_clopen")):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (cli.EXIT_INPUT, ""), argv
        assert err.startswith("error:") and "operation mode" in err, argv


N_LIMIT = "error: exhaustive topology enumeration supports 1..4 points\n"
TABLE_LIMIT = "error: table enumeration is limited to 3-point ground sets\n"


@pytest.mark.parametrize("argv,err", [
    (("mine", "--n", "5", "--ops", "builtins", "--predicate", "regular_open_not_clopen"), N_LIMIT),
    (("mine", "--n", "4", "--ops", "all_tables", "--predicate", "regular_open_not_clopen"), TABLE_LIMIT),
    # the walk's limits are checked before the predicate is read
    (("mine", "--n", "5", "--ops", "builtins", "--predicate", "bogus"), N_LIMIT),
    (("mine", "--n", "4", "--ops", "all_tables", "--predicate", "bogus"), TABLE_LIMIT),
    (("verify", "--enumerate", "5", "--ops", "builtins"), N_LIMIT),
    (("verify", "--enumerate", "4", "--ops", "all_tables"), TABLE_LIMIT),
    (("verify", "--enumerate", "4", "--ops", "builtins,all_tables", "--format", "machine"), TABLE_LIMIT),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else None)
def test_cli_enumeration_limits_are_input_errors(capsys, argv, err):
    assert run_cli(capsys, *argv) == (cli.EXIT_INPUT, "", err)


def test_cli_non_utf8_document_is_an_input_error(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"points": ["\xe9"]}')
    for command in ("verify", "analyze"):
        code, out, err = run_cli(capsys, command, str(path))
        assert (code, out) == (cli.EXIT_INPUT, ""), command
        assert err.startswith("error: document is not UTF-8 text"), command


@pytest.mark.parametrize("argv", [
    # about 172 KB of output, more than a pipe holds: the writer meets the closed pipe
    pytest.param(("verify", "--enumerate", "3", "--ops", "builtins,pivots", "--claims", "all"),
                 id="verify"),
    # about 15 MB in many batches: the pipe closes with most of them still unwritten
    pytest.param(("mine", "--n", "3", "--ops", "all_tables",
                  "--predicate", "gamma_open_not_theta_open"), id="mine"),
])
def test_closed_stdout_is_not_an_input_error(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_top.__file__).parent.parent))
    proc = subprocess.Popen(
        [sys.executable, "-m", "gamma_top.cli", *argv, "--format", "machine"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert proc.stdout.read(1) == b"{"
    proc.stdout.close()
    assert proc.wait(timeout=60) == cli.EXIT_BROKEN_PIPE == 141
    assert proc.stderr.read() == b""
    proc.stderr.close()


def _limit_address_space():
    one_gib = 1 << 30
    resource.setrlimit(resource.RLIMIT_AS, (one_gib, one_gib))


def _run_limited(*argv):
    """Run the CLI in a subprocess under a 1 GiB address-space limit;
    return the finished process and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_top.__file__).parent.parent))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "gamma_top.cli", *argv],
        capture_output=True, text=True, env=env, timeout=120,
        preexec_fn=_limit_address_space,
    )
    return proc, time.perf_counter() - start


BRIDGE_CLAIMS = "C-P4.10,C-P4.11,C-T4.13"


@pytest.mark.parametrize("size, claims, budget", [
    pytest.param(5, BRIDGE_CLAIMS, 30, id="5"),
    pytest.param(MAX_POINTS, BRIDGE_CLAIMS, 30, id=str(MAX_POINTS)),
    pytest.param(MAX_POINTS, "all", 15, id=f"{MAX_POINTS}-all"),
])
def test_verify_five_point_chain_bridge_claims(tmp_path, size, claims, budget):
    # the bridge claims read per-subset tables, n * 2**n steps: neither every
    # filterbase (165,211 on 5 points) nor every (tail, range) class (about
    # 43 M on 16 points) is built, so a chain of MAX_POINTS points finishes
    # quickly and in little memory; the monotonicity claims scan covering
    # pairs, n * 2**(n-1) of them, not all 3**n pairs of nested subsets
    points = [chr(ord("a") + i) for i in range(size)]
    doc = {
        "points": points,
        "opens": [points[:k] for k in range(len(points) + 1)],
        "gamma": {"kind": "closure"},
    }
    path = tmp_path / f"chain{size}.json"
    path.write_text(json.dumps(doc))
    proc, elapsed = _run_limited("verify", str(path), "--claims", claims, "--format", "machine")
    assert proc.returncode == 0, proc.stderr
    assert elapsed < budget
    verdicts = json.loads(proc.stdout)["verdicts"]
    assert [v["claim"] for v in verdicts] == list(parse_claims(claims))
    assert all(v["status"] in ("holds", "fails") or v["claim"] in CONDITIONED_CLAIMS
               for v in verdicts)


@pytest.fixture(scope="module")
def discrete16(tmp_path_factory):
    """The discrete topology on MAX_POINTS points, all 65,536 subsets open,
    with the identity operation, once by kind and once as a table."""
    points = [chr(ord("a") + i) for i in range(MAX_POINTS)]
    opens = [[p for i, p in enumerate(points) if m >> i & 1] for m in range(1 << MAX_POINTS)]
    gammas = {
        "identity": {"kind": "identity"},
        "table": {"kind": "table", "table": [{"open": u, "value": u} for u in opens]},
    }
    directory = tmp_path_factory.mktemp("discrete")
    paths = {}
    for kind, gamma in gammas.items():
        paths[kind] = directory / f"discrete{MAX_POINTS}-{kind}.json"
        paths[kind].write_text(json.dumps({"points": points, "opens": opens, "gamma": gamma}))
    return paths


# sha256 of the text stdout of verify --claims all, the same for both documents
DISCRETE16_VERIFY_SHA256 = "06b9af3192e097d8d4eb58b6199e9fe10ecc9a9607514ad23ba6a72062562e05"


@pytest.mark.parametrize("kind, argv", [
    pytest.param("identity", ("verify", "--claims", "all"), id="verify"),
    pytest.param("identity", ("analyze",), id="analyze"),
    pytest.param("table", ("verify", "--claims", "all"), id="verify-table"),
])
def test_discrete_sixteen_point_document_finishes(discrete16, kind, argv):
    # the topology is checked in n * |opens| look-ups, the space conditions
    # per point, the theta meets and the operation flags from 2**n tables:
    # no quantifier folds subfamilies or scans pairs of 65,536 opens; a
    # table operation is read in one pass, not scanned once per open
    proc, elapsed = _run_limited(argv[0], str(discrete16[kind]), *argv[1:])
    assert proc.returncode == 0, proc.stderr
    assert elapsed < 30
    if argv[0] == "verify":
        statuses = [line.split()[1] for line in proc.stdout.splitlines() if not line.startswith("measured")]
        assert statuses == ["holds"] * 24
        assert hashlib.sha256(proc.stdout.encode()).hexdigest() == DISCRETE16_VERIFY_SHA256


# Run by _peak_rss: it forks the CLI, reaps it with os.wait4 and writes its
# ru_maxrss (KiB on Linux) as the last line of stderr.  A child's ru_maxrss
# counts the resident set of the process it was forked from, so the CLI is
# forked from this small process, not from the test run, which holds every
# session fixture.
_PEAK_RSS_LAUNCHER = """
import os, sys
pid = os.fork()
if pid == 0:
    try:
        os.execv(sys.executable, [sys.executable, "-m", "gamma_top.cli", *sys.argv[1:]])
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
print(usage.ru_maxrss, file=sys.stderr)
sys.exit(os.waitstatus_to_exitcode(status))
"""


def _peak_rss(argv):
    """Run the CLI with *argv* in a child under the 1 GiB address-space
    limit, hashing its stdout as it streams rather than holding it.  Assert
    that it exits 0 within 60 s; return the sha256 of its stdout and its
    peak RSS in MiB."""
    env = dict(os.environ, PYTHONPATH=str(Path(gamma_top.__file__).parent.parent))
    sha = hashlib.sha256()
    start = time.perf_counter()
    with tempfile.TemporaryFile() as err:
        proc = subprocess.Popen([sys.executable, "-c", _PEAK_RSS_LAUNCHER, *argv],
                                stdout=subprocess.PIPE, stderr=err, env=env,
                                preexec_fn=_limit_address_space)
        with proc.stdout:
            for block in iter(lambda: proc.stdout.read(1 << 20), b""):
                sha.update(block)
        code = proc.wait()
        err.seek(0)
        *messages, peak = err.read().decode().splitlines()
        assert code == 0, "\n".join(messages)
    assert time.perf_counter() - start < 60
    return sha.hexdigest(), int(peak) / 1024


# sha256 of the machine stdout of verify --claims all on the identity document
DISCRETE16_MACHINE_SHA256 = "d51255ab9d7fedbdd28c1c535637592ffd33bee5262700cf028dbd46eebd6a44"


def test_discrete_sixteen_point_machine_verify_streams(discrete16):
    # about 535 MB of machine output, written in batches as it is encoded,
    # so it fits under the 1 GiB limit.  The space is one framed payload:
    # its frame's text is cut at the hole once, kept as batch-sized runs,
    # and written around the space's value at the empty set in each of the
    # 24 verdicts; the run takes about 3 s, and its peak RSS is about
    # 94 MiB: joining a separator to each label list of the opens costs
    # some 18 MiB more.
    sha, peak = _peak_rss(["verify", str(discrete16["identity"]), "--claims", "all",
                           "--format", "machine"])
    assert sha == DISCRETE16_MACHINE_SHA256
    assert peak < 110


# sha256 of the machine stdout of analyze on the identity document
DISCRETE16_ANALYZE_SHA256 = "d4a7d57de3203571b9b9b293079520783ec704af1c4ac460ea68ce8c8e0482bb"


def test_discrete_sixteen_point_machine_analyze_streams(discrete16):
    # 78 MB: each of the 65,536 classification rows is made as it is
    # written and let go once written, about 87 MiB peak RSS; built in
    # full before writing, with the text report besides, it peaked at
    # about 165 MiB
    sha, peak = _peak_rss(["analyze", str(discrete16["identity"]), "--format", "machine"])
    assert sha == DISCRETE16_ANALYZE_SHA256
    assert peak < 110


# sha256 of the text stdout of analyze on the identity document (16,777,585 bytes)
DISCRETE16_ANALYZE_TEXT_SHA256 = "95ba9d9712225defe4ad65961925f339a4622a4e0b45e727ad6e75c434f8cc95"


def test_discrete_sixteen_point_text_analyze_streams(discrete16):
    # each of the 65,536 lines is written as it is made, about 58 MiB peak
    # RSS; with every line and their 16.8 MB join built before the first
    # byte it peaked at about 113 MiB
    sha, peak = _peak_rss(["analyze", str(discrete16["identity"])])
    assert sha == DISCRETE16_ANALYZE_TEXT_SHA256
    assert peak < 80


def test_table_mine_machine_streams():
    # 15 MB of 12,144 records: each is made as it is written, and its hit
    # is let go with it, about 22 MiB peak RSS; with every record built
    # before the first byte it peaked at about 28 MiB
    argv = ("mine", "--n", "3", "--ops", "all_tables", "--predicate", "gamma_open_not_theta_open",
            "--format", "machine")
    sha, peak = _peak_rss(argv)
    assert sha == GOLDEN["mine3-tables-gamma_open_not_theta_open-t1"][0]
    assert peak < 25


def test_sixteen_point_non_topology_is_refused_quickly(tmp_path):
    # every subset but the singleton of the last point p: the pairwise scan
    # met its first failing pair, ({a,p}, {b,p}), after about 2**30 pairs;
    # the fold of the members at p names it within n * |family| steps
    points = [chr(ord("a") + i) for i in range(MAX_POINTS)]
    last = 1 << (MAX_POINTS - 1)
    opens = [[p for i, p in enumerate(points) if m >> i & 1]
             for m in range(1 << MAX_POINTS) if m != last]
    path = tmp_path / "almost-discrete.json"
    path.write_text(json.dumps({"points": points, "opens": opens, "gamma": {"kind": "identity"}}))
    proc, elapsed = _run_limited("verify", str(path), "--claims", "all", "--format", "machine")
    assert proc.returncode == cli.EXIT_INPUT
    assert proc.stdout == ""
    assert f"intersection of {{a,{points[-1]}}} and {{b,{points[-1]}}} is not in the family" in proc.stderr
    assert elapsed < 10
