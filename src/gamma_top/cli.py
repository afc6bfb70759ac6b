"""Command line interface.

    gamma-top analyze <file> [--format text|machine]
    gamma-top verify (<file> | --enumerate N --ops MODES) [--claims LIST]
    gamma-top mine --n N --ops MODES --predicate NAME
    gamma-top audit --example {3.2,3.5,3.16,3.17}

With ``--format machine`` stdout is the payload as
``json.dumps(payload, sort_keys=True, indent=2)`` writes it (keys sorted,
two-space indent, ASCII escapes) plus one trailing newline.
``jsonout.dump`` writes the payload to stdout in batches, so the text is
never held whole.  The rows of ``mine`` and of ``analyze`` are an
iterator in the payload: each record or classification row is made as it
is written and let go once written.  ``mine`` reports one hit per row,
and makes the hit's records, one per witness, when it is written, then
lets the hit go with them.  Text ``analyze`` writes each line as it
makes it.  Every space a payload carries is framed: the spaces of one
slice, or the one space of a document's verdicts, share a frame, whose
text is written once around each space's value at the empty set; and the
records ``mine`` reports on one witness and one group of more than one
row (a table slice) share a frame, written once around each record's
operation index and value at the empty set.  Tier-1 pins these bytes
against ``json.dumps``.

Exit codes: 0 success / all safe claims pass, 1 a safe claim failed,
2 input error, 3 out of memory, 70 internal error (a bug; the traceback
goes to stderr), 130 interrupted, 141 stdout closed early (broken pipe,
as a shell reports SIGPIPE).  Output is written as it is made, so any
code but 0 and 1 can come after partial stdout: an error while writing
(a closed pipe, a full disk), and also a bug (70) or running out of
memory (3) while a row is made.  The exit code still says what happened.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import os
import sys
import traceback

from . import documents, jsonout, theoremlab
from .finspace import FinSpaceError
from .gamma_core import GammaError
from .gamma_sets import FLAG_NAMES, classify_subset, gamma_open_family, regular_open_family, theta_families
from .theoremlab import (
    SAFE_CLAIMS, SweepReport, UnknownClaim, UnknownExample, UnknownMode, UnknownPredicate,
)

EXIT_OK = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_MEMORY = 3
EXIT_SOFTWARE = 70  # EX_SOFTWARE of sysexits.h
EXIT_INTERRUPTED = 130
EXIT_BROKEN_PIPE = 141


def _emit(payload: dict | None, text: str, fmt: str):
    if fmt == "machine":
        # sys.stdout is read per call: tests and the benchmark redirect it
        out = sys.stdout
        jsonout.dump(payload, out.write)
        out.write("\n")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _load(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise documents.DocumentSyntaxError(f"document is not UTF-8 text: {exc.reason}") from None
    return documents.parse_space(text)


def _fam(sp, masks) -> str:
    return " ".join(sp.ground.format(m) for m in masks) or "-"


# -- analyze -----------------------------------------------------------------

def _analyze_payload(sp) -> dict:
    """The machine payload; its classification rows are made as they are
    written, one per subset, and let go once written."""
    theta_closed, theta_open = theta_families(sp)
    lists = sp.ground.label_list

    def row(m):
        c = classify_subset(sp, m)
        return {"subset": lists(m), "flags": c.flags, "witnesses": c.witnesses}

    return {
        "space": documents.space_to_document(sp),
        "flags": theoremlab.space_flags(sp),
        "families": {
            "opens": [lists(m) for m in sp.top.opens_sorted],
            "gamma_open": [lists(m) for m in gamma_open_family(sp)],
            "regular_open": [lists(m) for m in regular_open_family(sp)],
            "theta_open": [lists(m) for m in theta_open],
            "theta_closed": [lists(m) for m in theta_closed],
        },
        "classification": map(row, sp.ground.subsets()),
    }


def _analyze_lines(sp):
    """The text report, one line at a time: each classification row is
    made as it is written and let go once written."""
    yield f"points: {', '.join(sp.ground.labels)}\n"
    yield f"opens:        {_fam(sp, sp.top.opens_sorted)}\n"
    yield f"gamma-open:   {_fam(sp, gamma_open_family(sp))}\n"
    yield f"regular-open: {_fam(sp, regular_open_family(sp))}\n"
    theta_closed, theta_open = theta_families(sp)
    yield f"theta-open:   {_fam(sp, theta_open)}\n"
    yield f"theta-closed: {_fam(sp, theta_closed)}\n"
    for name, value in theoremlab.space_flags(sp).items():
        yield f"{name}: {'yes' if value else 'no'}\n"
    yield "\n"
    width = max(12, sp.ground.n * 2 + 3)
    yield "subset".ljust(width) + " ".join(f.rjust(len(f)) for f in FLAG_NAMES) + "\n"
    for m in sp.ground.subsets():
        flags = classify_subset(sp, m).flags
        marks = " ".join(("yes" if flags[f] else "no").rjust(len(f)) for f in FLAG_NAMES)
        yield sp.ground.format(m).ljust(width) + marks + "\n"


def cmd_analyze(args) -> int:
    sp = _load(args.file)
    # each format builds only what it prints, row by row
    if args.format == "machine":
        _emit(_analyze_payload(sp), None, "machine")
    else:
        sys.stdout.writelines(_analyze_lines(sp))
    return EXIT_OK


# -- verify -------------------------------------------------------------------

def _verify_enumeration(args, claims) -> tuple[SweepReport, int]:
    modes = theoremlab.parse_modes(args.ops)
    report = theoremlab.full_sweep(args.enumerate, modes, claims, invariants=False)[0]
    safe_fails = sum(report.tallies[cid]["fails"] for cid in claims if cid in SAFE_CLAIMS)
    return report, EXIT_COUNTEREXAMPLE if safe_fails else EXIT_OK


def _enumeration_text(report: SweepReport) -> str:
    lines = [f"enumeration: n={report.n} modes={','.join(report.modes)} "
             f"topologies={report.topologies} spaces={report.spaces}"]
    for cid in report.claim_ids:
        t = report.tallies[cid]
        lines.append(
            f"{cid:14} holds={t['holds']:<6} fails={t['fails']:<6} "
            f"hypotheses_not_met={t['hypotheses_not_met']}"
        )
    for v in report.failures[:10]:
        lines.append(f"counterexample {v.claim_id}: {json.dumps(v.witness, sort_keys=True)}")
    if len(report.failures) > 10:
        lines.append(f"... {len(report.failures) - 10} more counterexamples")
    return "\n".join(lines) + "\n"


def _verify_file(args, claims) -> tuple[theoremlab.VerificationReport, int]:
    report = theoremlab.run_suite(_load(args.file), claims)
    safe_fails = [v for v in report.verdicts if v.status == "fails" and v.claim_id in SAFE_CLAIMS]
    return report, EXIT_COUNTEREXAMPLE if safe_fails else EXIT_OK


def _file_text(report: theoremlab.VerificationReport) -> str:
    lines = []
    for v in report.verdicts:
        line = f"{v.claim_id:14} {v.status}"
        if v.status == "fails":
            line += f"  witness {json.dumps(v.witness, sort_keys=True)}"
        elif v.status == "hypotheses_not_met":
            line += f"  (needs {', '.join(v.notes.get('unmet', ()))})"
        lines.append(line)
    for d in report.discrepancies:
        lines.append(f"measured {d['kind']}: {json.dumps({k: v for k, v in d.items() if k != 'kind'}, sort_keys=True)}")
    return "\n".join(lines) + "\n"


def cmd_verify(args) -> int:
    if (args.file is None) == (args.enumerate is None):
        raise FinSpaceError("verify needs a space file or --enumerate N, not both")
    if args.enumerate is None and args.ops is not None:
        raise FinSpaceError("--ops needs --enumerate N; a space file carries its operation")
    default = "safe" if args.enumerate is not None else "all"
    claims = theoremlab.parse_claims(default if args.claims is None else args.claims)
    if args.enumerate is not None:
        if args.ops is None:
            raise FinSpaceError("--enumerate requires --ops")
        report, code = _verify_enumeration(args, claims)
        text = _enumeration_text
    else:
        report, code = _verify_file(args, claims)
        text = _file_text
    # each format builds only what it prints: machine the payload, text the report
    if args.format == "machine":
        _emit(report.to_dict(), None, "machine")
    else:
        _emit(None, text(report), "text")
    return code


# -- mine ----------------------------------------------------------------------

def _mine_text(args, modes, found, count) -> str:
    lines = [f"predicate {args.predicate}: {count} witnesses "
             f"(n={args.n}, modes={','.join(modes)})"]
    records = ((hit, witness) for hit in found for witness in hit.witnesses)
    for hit, witness in itertools.islice(records, 20):
        lines.append(
            f"topology {hit.topology_index:>4} operation {hit.operation_index:>4} "
            f"witness {json.dumps(witness, sort_keys=True)}"
        )
    if count > 20:
        lines.append(f"... {count - 20} more")
    return "\n".join(lines) + "\n"


def _taken(items: list):
    """The items of *items* in order, each taken out of the list as it is
    handed on, so the list holds none that has been handed on."""
    items.reverse()
    while items:
        yield items.pop()


def cmd_mine(args) -> int:
    modes = theoremlab.parse_modes(args.ops)
    found = theoremlab.mine(args.n, modes, args.predicate)
    # one hit per row, with one record per witness
    count = sum(len(hit.witnesses) for hit in found)
    # each format builds only what it prints: text its lines from the hits,
    # machine the records, each row's made as they are written; the hit and
    # its records are let go once written
    if args.format == "text":
        _emit(None, _mine_text(args, modes, found, count), "text")
        return EXIT_OK
    payload = {
        "predicate": args.predicate,
        "n": args.n,
        "modes": list(modes),
        "count": count,
        "witnesses": itertools.chain.from_iterable(
            map(theoremlab.MinedWitness.to_dict, _taken(found))),
    }
    _emit(payload, None, "machine")
    return EXIT_OK


# -- audit ----------------------------------------------------------------------

def _audit_text(audit: theoremlab.ExampleAudit) -> str:
    lines = [f"example {audit.example}"]
    for diff in audit.families:
        status = "match" if diff.match else "MISMATCH"
        lines.append(f"family {diff.name}: {status}")
        lines.append(f"  printed:    {[','.join(t) or 'empty' for t in diff.printed]}")
        lines.append(f"  recomputed: {[','.join(t) or 'empty' for t in diff.recomputed]}")
        if diff.missing_from_printed:
            lines.append(f"  missing from printed: {diff.missing_from_printed}")
        if diff.spurious_in_printed:
            lines.append(f"  spurious in printed:  {diff.spurious_in_printed}")
    q = audit.qualitative
    lines.append(f"separation {q['separation']}: printed witness {q['printed_witness']} "
                 f"{'valid' if q['printed_witness_valid'] else 'INVALID'} under recomputation")
    lines.append(f"  witnesses in this space: {q['recomputed_witnesses'] or 'none'}")
    for name, value in audit.flags.items():
        lines.append(f"{name}: {'yes' if value else 'no'}")
    return "\n".join(lines) + "\n"


def cmd_audit(args) -> int:
    audit = theoremlab.audit_example(args.example)
    if args.format == "machine":
        _emit(audit.to_dict(), None, "machine")
    else:
        _emit(None, _audit_text(audit), "text")
    return EXIT_OK


# -- wiring ----------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process; parsing leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="gamma-top",
        description="analyze, verify, mine and audit expansive operations on finite topologies",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="families, flags and the full classification table")
    p.add_argument("file", help="space document (JSON)")
    p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("verify", help="run the claim suite on one space or an enumeration")
    p.add_argument("file", nargs="?", default=None)
    p.add_argument("--enumerate", type=int, default=None, metavar="N")
    p.add_argument("--ops", default=None, help="comma list of builtins,pivots,all_tables")
    p.add_argument("--claims", default=None,
                   help="comma list of claim ids, or safe|conditioned|all "
                        "(default: all for a file, safe for an enumeration)")
    p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("mine", help="search an enumeration for separations or claim failures")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--ops", required=True)
    p.add_argument("--predicate", required=True,
                   help=f"one of {', '.join(theoremlab.PREDICATE_NAMES[:5])}, ... or fails:<claim>")
    p.add_argument("--format", choices=("text", "machine"), default="text")

    p = sub.add_parser("audit", help="diff a bundled example against recomputation")
    p.add_argument("--example", required=True, choices=("3.2", "3.5", "3.16", "3.17"))
    p.add_argument("--format", choices=("text", "machine"), default="text")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up per call, so a command replaced at run time takes effect
    commands = {"analyze": cmd_analyze, "verify": cmd_verify, "mine": cmd_mine, "audit": cmd_audit}
    try:
        return commands[args.command](args)
    except BrokenPipeError:
        # the reader is gone; the flush at shutdown must not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    # each its own class: a bare ValueError is a bug, not bad input
    except (documents.DocumentError, FinSpaceError, GammaError,
            UnknownClaim, UnknownExample, UnknownMode, UnknownPredicate, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_MEMORY
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Exception:
        # a bug, not a finding: never the counterexample code
        traceback.print_exc()
        return EXIT_SOFTWARE


if __name__ == "__main__":
    sys.exit(main())
