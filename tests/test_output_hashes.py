"""The sha256 of stdout and the exit code of fast CLI commands, pinned.

Refactors must leave the bytes of every command unchanged.  Regenerate a
value only for an intended output change, and say why in CHANGES.md.
"""

import hashlib
import json

import pytest

from gamma_top import cli, documents, jsonout, theoremlab


def _cases():
    for name, n, ops in (("sweep3-all", "3", "builtins,pivots"),
                         ("sweep3-tables-all", "3", "all_tables"),
                         ("sweep4-all", "4", "builtins,pivots")):
        sweep = ("verify", "--enumerate", n, "--ops", ops, "--claims", "all", "--format", "machine")
        yield f"{name}-t1", sweep
    bridge = ("verify", "--enumerate", "4", "--ops", "builtins,pivots",
              "--claims", "C-P4.10,C-P4.11,C-T4.13", "--format", "machine")
    yield "sweep4-bridge-t1", bridge
    for command in ("verify", "analyze"):
        for name in ("example3_2", "example3_5", "example3_16", "example3_17"):
            for fmt in ("machine", "text"):
                path = str(documents.bundled_path(name))
                yield f"{command}-{name}-{fmt}", (command, path, "--format", fmt)
    for example in ("3.2", "3.5", "3.16", "3.17"):
        yield f"audit-{example}", ("audit", "--example", example, "--format", "machine")
    for predicate in sorted(theoremlab.SEPARATIONS):
        argv = ("mine", "--n", "3", "--ops", "builtins,pivots", "--predicate", predicate,
                "--format", "machine")
        yield f"mine-{predicate}-t1", argv
    for predicate in sorted(theoremlab.SEPARATIONS) + ["fails:C-RO-INCL"]:
        argv = ("mine", "--n", "3", "--ops", "all_tables", "--predicate", predicate,
                "--format", "machine")
        yield f"mine3-tables-{predicate}-t1", argv
    # the text report reads the records that machine output writes framed
    yield "mine3-tables-gamma_open_not_theta_open-text", (
        "mine", "--n", "3", "--ops", "all_tables", "--predicate", "gamma_open_not_theta_open",
        "--format", "text")
    # every builtin and pivot row is a group of one: plain records only
    yield "mine4-regular_open_not_clopen-t1", ("mine", "--n", "4", "--ops", "builtins,pivots",
                                               "--predicate", "regular_open_not_clopen",
                                               "--format", "machine")
    # mixed modes: a builtin's one-row group and table rows on one topology
    yield "mine3-mixed-t1", ("mine", "--n", "3", "--ops", "builtins,all_tables",
                             "--predicate", "gamma_open_not_regular_open", "--format", "machine")
    yield "sweep3-mixed-all-t1", ("verify", "--enumerate", "3", "--ops", "all_tables,builtins",
                                  "--claims", "all", "--format", "machine")


CASES = list(_cases())

# case id -> (sha256 of stdout, exit code)
GOLDEN = {
    "sweep3-all-t1": ("0d823c2deb01e79c63e0497fdbb31f05b347c0207de89e6eae6db3a506dce919", 1),
    "sweep3-tables-all-t1": ("f2404cab7e74a0da01fdb31a475f175189252905cdb557aa377fbbc95652e848", 1),
    "sweep4-all-t1": ("47b859671674120a9078f1c7ef6b7bf7ca5625c141baebe7207c293d07e1e3b0", 1),
    "sweep4-bridge-t1": ("7c8b3f78c45d8ce2f6b3d0b988e0cb6e8bcad24d59957ce345ccdd7db4cf21d8", 0),
    "verify-example3_2-machine": ("de685ca1a40fecbe85ba1fb7681f85397d3e39ca214d5259fcdaf9a5812b06c3", 0),
    "verify-example3_2-text": ("a693dc1a6bf0991728ee71db46245fb477bea7ca98eee45b12e921812d5973e7", 0),
    "verify-example3_5-machine": ("c5f4ca14e73289f273128bc98de032cedf5c744ee9f9db974a688da31692c999", 0),
    "verify-example3_5-text": ("914e877d4d760b79bf7faf834e945dba455e3008d1c45836edc70637034a5828", 0),
    "verify-example3_16-machine": ("de685ca1a40fecbe85ba1fb7681f85397d3e39ca214d5259fcdaf9a5812b06c3", 0),
    "verify-example3_16-text": ("a693dc1a6bf0991728ee71db46245fb477bea7ca98eee45b12e921812d5973e7", 0),
    "verify-example3_17-machine": ("25e291ad6d1f917df45b404fce955074545ad1b49efb21bc898fba7c651198e3", 0),
    "verify-example3_17-text": ("06b9af3192e097d8d4eb58b6199e9fe10ecc9a9607514ad23ba6a72062562e05", 0),
    "analyze-example3_2-machine": ("fa9b49e869ae073fdb2deae359c09c2f1663bde4c31b57c3e110b210ddadbcfd", 0),
    "analyze-example3_2-text": ("43bdef1e9eca492e3b4e82a0dc6baa100110c1d559e55fb3cc54564af023d484", 0),
    "analyze-example3_5-machine": ("85bd22889a73c67a7f2e109c13304acfc7e2a0be468c3bdcd8391f90e0afedc4", 0),
    "analyze-example3_5-text": ("67c9603091dabb0f41d9e9111b8eceb0f6d370526afee9d5d3e8fc74772e7d8b", 0),
    "analyze-example3_16-machine": ("fa9b49e869ae073fdb2deae359c09c2f1663bde4c31b57c3e110b210ddadbcfd", 0),
    "analyze-example3_16-text": ("43bdef1e9eca492e3b4e82a0dc6baa100110c1d559e55fb3cc54564af023d484", 0),
    "analyze-example3_17-machine": ("c189ab0ac476a3ec4fdea4001cee396c14c35407f07866f8b54fe3eaf4f23e2f", 0),
    "analyze-example3_17-text": ("7b58847ef2637aa59f5b714bdd8e305904acea0b19828d086ef0a32e6d668036", 0),
    "audit-3.2": ("719940290f36a6ab3109db78dba0eaf9718ce3aeea9903083d295617be51b210", 0),
    "audit-3.5": ("64c2a48851ef513f8fd73a5f2b9f7b31b2fb130afcbcd078a0a8fc93cffc5bbf", 0),
    "audit-3.16": ("9e198b0ec866db2065b0788041dca52c8daf183e5637aa7d544f7936f15a80c9", 0),
    "audit-3.17": ("8edecd0815cab04e6079d23164beb3d1406492357a0b9b6b5a2aeb6a47b78a98", 0),
    "mine-gamma_open_not_regular_open-t1": ("0ff1af1502b7ce4a2c40e26d13b81c0bed50daa1f9b0bacc57cfbcbc703d155d", 0),
    "mine-gamma_open_not_theta_open-t1": ("c5bdc67c3769400ccc922e28c0a23236330d6ab4df90c0611da87bf0e68becd6", 0),
    "mine-regular_open_not_clopen-t1": ("024d70b055434096c629d879a243c1aa3be79bf3c10d38a8405bacb3bd251744", 0),
    "mine-regular_open_not_gamma_open-t1": ("f532080edd77d7466cfa6877c80ab34a15bee23e11e377a9a4f800ed12da7498", 0),
    "mine-theta_open_not_regular_open-t1": ("ee0b60751bae0de9ecb4be7f9613fa39fe8dc4805c21e14910b0e1b550bb20cc", 0),
    "mine3-tables-gamma_open_not_regular_open-t1": ("00ae3cfa5042b132ecf49d8f5505ce876ebb747b5c423e9cd8493b41b1ad7dd4", 0),
    "mine3-tables-gamma_open_not_theta_open-t1": ("cde6c94b5b2ab7e84aed38f8f34ff91f27a06f354cfdfcb7f5951fb7b401ef52", 0),
    "mine3-tables-regular_open_not_clopen-t1": ("61109fc5dcdbc9a7e809c5846611c4829ef2271da3c4162e1cac0303f5bac761", 0),
    "mine3-tables-regular_open_not_gamma_open-t1": ("365eb2a2a08fde84916b6fabda86450ce5deecd70a248bdca108d2858b0a45e3", 0),
    "mine3-tables-theta_open_not_regular_open-t1": ("8d22d6345346918bc0efdb5ced8ab7c07b8522f9f70588f32ddd65e4149681d4", 0),
    "mine3-tables-fails:C-RO-INCL-t1": ("fd401a13261555af544bd95db0cb368201f9df708f610a9cc5d52327528b971a", 0),
    "mine3-tables-gamma_open_not_theta_open-text": ("4bfee069b5afdcf97653c0c67fb3879bfaecb56c26a42937d60a69060d956090", 0),
    "mine4-regular_open_not_clopen-t1": ("201cd58c282083f41377edb3090ae5bc2e6296a8a67bb30363635ddd68ea0e8a", 0),
    "mine3-mixed-t1": ("a38eb545a29bf6892cd1f3fb9f4510920e7e77febe0ad083e0d77a7432713ec2", 0),
    "sweep3-mixed-all-t1": ("e034c2e6957ce9d99624f40a8b97561aeb77176f168d287401e1b2276f1ad540", 1),
}


@pytest.mark.parametrize("case_id,argv", CASES, ids=[c[0] for c in CASES])
def test_output_bytes_and_exit_code(capsys, case_id, argv):
    code = cli.main(list(argv))
    digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()
    assert (digest, code) == GOLDEN[case_id]


# sha256 of the claim and invariant reports of the session sweep fixtures,
# as the benchmark writes them: invariant statistics included
SWEEP_FIXTURE_GOLDEN = {
    "sweep3": "158a5cd55c17cdd3c0eab4cd16c523259c68d19cba760485f0c32907edf17c4f",
    "sweep4": "401a1b08960ee0e4933e4ea2347d5618fb63e9b296894b7dfa85bc87105ca8ac",
}


def test_sweep_fixture_bytes(sweep3, sweep4):
    # the machine writer gives the same bytes, framed spaces and all
    for name, (claims, invariants) in (("sweep3", sweep3), ("sweep4", sweep4)):
        payload = {"claims": claims.to_dict(), "invariants": invariants.to_dict()}
        for text in (json.dumps(payload, sort_keys=True, indent=2) + "\n", jsonout.dumps(payload) + "\n"):
            assert hashlib.sha256(text.encode("utf-8")).hexdigest() == SWEEP_FIXTURE_GOLDEN[name], name


# sha256 of json.dumps(bridge_report(3).to_dict(), sort_keys=True): the
# bridge report's failure counts and first witnesses per pairing
BRIDGE_REPORT_GOLDEN = "b4ae36b0736718890be394f97bc749d0065c9bd945adf70789ed1bde54ced627"


def test_bridge_report_bytes():
    text = json.dumps(theoremlab.bridge_report(3).to_dict(), sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == BRIDGE_REPORT_GOLDEN


# a 3-point table document whose operation is no builtin: {a} -> {a, c}
# is neither the open, its closure X, nor the interior of that closure,
# and the empty set goes to {b}
TABLE_DOCUMENT = {
    "points": ["a", "b", "c"],
    "opens": [[], ["a"], ["a", "b"], ["a", "b", "c"]],
    "gamma": {
        "kind": "table",
        "table": [
            {"open": ["a", "b"], "value": ["a", "b"]},
            {"open": [], "value": ["b"]},
            {"open": ["a", "b", "c"], "value": ["a", "b", "c"]},
            {"open": ["a"], "value": ["a", "c"]},
        ],
    },
}

# output -> (sha256 of the text, exit code; None for serialize_space)
TABLE_DOCUMENT_GOLDEN = {
    "analyze": ("82d618a97d20e92276a1ce601a46bd2db51e32923606cc1a76b68690e719f0be", 0),
    "verify": ("5bec58f356faf4e01a7f30dd957a748252efee11bf0df7be7032c61a19ce12f9", 0),
    "serialize": ("c036c6a13df36859b412a67ca544272f4154ef8d8abf6d56dc16994cd2292544", None),
}


def test_table_document_bytes(capsys, tmp_path):
    text = json.dumps(TABLE_DOCUMENT)
    path = tmp_path / "table.json"
    path.write_text(text, encoding="utf-8")
    got = {}
    for name, argv in (("analyze", ("analyze", str(path), "--format", "machine")),
                       ("verify", ("verify", str(path), "--claims", "all", "--format", "machine"))):
        code = cli.main(list(argv))
        got[name] = (hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest(), code)
    serialized = documents.serialize_space(documents.parse_space(text))
    got["serialize"] = (hashlib.sha256(serialized.encode("utf-8")).hexdigest(), None)
    assert got == TABLE_DOCUMENT_GOLDEN
