"""CLI surface: artifacts, exit codes, determinism, config handling."""

import json

from cactuscells.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cells_i25(capsys):
    code, out, _ = run(capsys, "cells", "--type", "I2(5)", "--weights", "s=1,t=1")
    assert code == 0
    doc = json.loads(out)
    left = [c for c in doc["cells"] if c["side"] == "left"]
    assert len(left) == 4
    sizes = sorted(len(c["members"]) for c in left)
    assert sizes == [1, 1, 4, 4]


def test_cells_artifacts_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    for out in (out1, out2):
        code, _, _ = run(
            capsys, "cells", "--type", "I2(3)", "--weights", "s=1,t=1",
            "--out", str(out), "--jobs", "2" if out is out2 else "1",
        )
        assert code == 0
    names = ["cells.json", "cells_left.dot", "cells_right.dot", "cells_two_sided.dot"]
    assert sorted(p.name for p in out1.iterdir()) == sorted(names)
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_dot_two_sided_chain_i23(tmp_path, capsys):
    code, _, _ = run(
        capsys, "cells", "--type", "I2(3)", "--weights", "s=1,t=1", "--out", str(tmp_path)
    )
    assert code == 0
    dot = (tmp_path / "cells_two_sided.dot").read_text()
    # three nodes, two covering edges: {w0} -> middle -> {1}
    assert dot.count("label=") == 3
    assert dot.count("->") == 2
    assert 'n2 -> n1' in dot and 'n1 -> n0' in dot
    assert 'n0 [label="{1}"]' in dot


def test_cellmaps_unequal_i24_matches_closed_form(capsys):
    code, out, _ = run(
        capsys, "cellmaps", "--type", "I2(4)", "--weights", "s=1,t=2",
        "--parabolic", "s,t",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["hypotheses_hold"]
    maps = {r["w"]: (r["image"], r["sign"]) for r in doc["maps"]}
    # m = 4 with phi(s) < phi(t): the involution is the identity permutation
    assert all(img == w for w, (img, _) in maps.items())
    assert maps[""] == ("", 1)
    assert maps["s"][1] == 1  # (-1)^{m/2}
    assert maps["t"][1] == -1
    assert all(r["holds"] for r in doc["verification"].values())


def test_cellmaps_eta_csv_b3_mixed_signs(tmp_path, capsys):
    code, _, _ = run(
        capsys, "cellmaps", "--type", "B3", "--weights", "t=2,s1=1,s2=1",
        "--parabolic", "t,s1,s2", "--out", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "eta.csv").read_text().strip().splitlines()
    assert rows[0] == "w,two_sided_cell_id,eta"
    signs_by_cell = {}
    for row in rows[1:]:
        _w, cell, eta = row.rsplit(",", 2)
        signs_by_cell.setdefault(cell, set()).add(int(eta))
    assert any(s == {1, -1} for s in signs_by_cell.values())


def test_cellmaps_eta_csv_dihedral_constant(tmp_path, capsys):
    code, _, _ = run(
        capsys, "cellmaps", "--type", "I2(5)", "--weights", "s=1,t=1",
        "--parabolic", "s,t", "--out", str(tmp_path),
    )
    assert code == 0
    rows = (tmp_path / "eta.csv").read_text().strip().splitlines()[1:]
    signs_by_cell = {}
    for row in rows:
        _w, cell, eta = row.rsplit(",", 2)
        signs_by_cell.setdefault(cell, set()).add(int(eta))
    assert all(len(s) == 1 for s in signs_by_cell.values())


def test_cellmaps_right_side(capsys):
    code, out, _ = run(
        capsys, "cellmaps", "--type", "I2(5)", "--weights", "s=1,t=1",
        "--parabolic", "s,t", "--side", "right",
    )
    assert code == 0
    doc = json.loads(out)
    maps = {r["w"]: r["image"] for r in doc["maps"]}
    # rho(s_1) = s_{m-1} for the equal-parameter pentagon
    assert maps["s"] == "t.s.t.s"
    assert all(r["holds"] for r in doc["verification"].values())


def test_cactus_act_right_side(capsys):
    code, out, _ = run(
        capsys, "cactus", "act", "--type", "I2(6)", "--weights", "s=1,t=1",
        "--word", "s,t", "--side", "right", "--element", "s",
    )
    assert code == 0
    assert json.loads(out)["image"] == "s.t.s.t.s"  # rho(s_1) = s_5


def test_conjectures_b3(capsys):
    code, out, _ = run(
        capsys, "conjectures", "--type", "B3", "--weights", "t=2,s1=1,s2=1",
        "--check", "P1,P4,P8,P9",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["all_hold"]
    assert set(doc["checks"]) == {"P1", "P4", "P8", "P9"}


def test_cactus_verify_act_orbits(capsys):
    code, out, _ = run(capsys, "cactus", "verify", "--type", "I2(6)", "--weights", "s=1,t=2")
    assert code == 0
    assert json.loads(out)["all_hold"]

    code, out, _ = run(
        capsys, "cactus", "act", "--type", "I2(5)", "--weights", "s=1,t=1",
        "--word", "s,t", "--side", "left", "--element", "s.t.s",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["image"] == "s.t" and doc["sign"] == -1  # lambda(s_3) = t_2 for m = 5

    code, out, _ = run(
        capsys, "cactus", "orbits", "--type", "I2(5)", "--weights", "s=1,t=1",
        "--side", "two-sided",
    )
    assert code == 0
    doc = json.loads(out)
    assert [""] in doc["orbits"] and ["s.t.s.t.s"] in doc["orbits"]


def test_group_command_finite_and_infinite(capsys):
    code, out, _ = run(capsys, "group", "--type", "A3")
    assert code == 0
    doc = json.loads(out)
    assert doc["order"] == 24 and len(doc["elements"]) == 24
    assert doc["longest"] == "s1.s2.s1.s3.s2.s1"

    code, out, _ = run(
        capsys, "group", "--matrix", "[[1,0],[0,1]]", "--labels", "s,t", "--max-length", "4"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["finite"] is False and len(doc["elements"]) == 9

    code, _, err = run(capsys, "group", "--matrix", "[[1,0],[0,1]]", "--labels", "s,t")
    assert code == 1 and "max-length" in err


def test_klbasis_records(capsys):
    code, out, _ = run(capsys, "klbasis", "--type", "I2(3)", "--weights", "s=1,t=1", "--with-h")
    assert code == 0
    doc = json.loads(out)
    recs = {(r["x"], r["y"]): r["coeff"] for r in doc["pstar"]}
    assert recs[("", "s.t")] == "1*v^(-2)"
    assert recs[("s.t", "s.t")] == "1*v^(0)"
    hrecs = {(r["x"], r["y"], r["z"]): r["coeff"] for r in doc["h"]}
    assert hrecs[("t", "s", "t.s")] == "1*v^(0)"


def test_afunction_records(capsys):
    code, out, _ = run(capsys, "afunction", "--type", "I2(3)", "--weights", "s=1,t=1")
    assert code == 0
    doc = json.loads(out)
    values = {r["w"]: r for r in doc["values"]}
    assert values[""]["a"] == [0] and values["s"]["a"] == [1]
    assert values["s.t.s"]["a"] == [3]
    assert values["s"]["duflo"] is True and values["s.t"]["duflo"] is False
    assert doc["dmap_available"] and values["s.t"]["d"] == "t"


def test_config_file_and_flag_override(tmp_path, capsys):
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({
        "type": "I2(4)",
        "weights": {"s": 1, "t": 2},
        "parabolic": ["s", "t"],
        "side": "left",
    }))
    code, out, _ = run(capsys, "cellmaps", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["parabolic"] == ["s", "t"]
    # a flag overrides the config value
    code, out, _ = run(capsys, "cellmaps", "--config", str(cfg), "--parabolic", "s")
    assert code == 0
    assert json.loads(out)["parabolic"] == ["s"]


def test_usage_errors_exit_1(capsys):
    assert run(capsys, "cells", "--type", "Z9")[0] == 1
    assert run(capsys, "cells", "--type", "I2(5)", "--weights", "s=1")[0] == 1
    assert run(capsys, "cells", "--type", "I2(5)", "--weights", "s=1,t=2")[0] == 1  # odd m
    assert run(capsys, "cactus", "act", "--type", "A3")[0] == 1  # missing --word
    assert run(capsys, "cellmaps", "--type", "A3", "--parabolic", "zz")[0] == 1
    assert run(capsys, "group", "--type", "A3", "--jobs", "0")[0] == 1
    code, out, err = run(capsys, "cellmaps", "--type", "A3", "--side", "middle")
    assert (code, out, err) == (1, "", "error: --side must be left or right\n")
    code, out, err = run(capsys, "cactus", "orbits", "--type", "A3", "--side", "middle")
    assert (code, out, err) == (1, "", "error: --side must be left, right or two-sided\n")
    code, out, err = run(capsys, "cells", "--type", "B2", "--weights", "t=1,s1=1,x=3")
    assert (code, out, err) == (1, "", "error: unknown generator 'x' in weights\n")


def test_weight_components_after_the_first_are_bounded(capsys):
    for command in ("cells", "group"):
        for big in ("99999999999", "4294967296", "-4294967296"):
            code, out, err = run(
                capsys, command, "--type", "B3", "--weights", "t=1:%s,s1=0:1,s2=0:1" % big
            )
            assert (code, out) == (1, "") and "|e| < 2**32" in err, (command, big)
    # the leading component is unbounded; a later one may reach 2**32 - 1, and
    # sums of such weights exceed it without carrying into the leading one
    code, out, _ = run(
        capsys, "afunction", "--type", "I2(4)", "--weights", "s=99999999999:1,t=0:4294967295"
    )
    assert code == 0
    top = json.loads(out)["values"][-1]
    assert top["w"] == "s.t.s.t"
    assert top["a"] == top["delta"] == [2 * 99999999999, 2 + 2 * 4294967295]


def test_conjectures_empty_check_list_exits_1(capsys):
    for check in (",", ""):
        code, out, err = run(capsys, "conjectures", "--type", "A2", "--check", check)
        assert (code, out) == (1, "")
        assert err == "error: --check names no conjecture; choose from P1,P4,P8,P9\n"


def test_conjectures_unknown_check_exits_1(capsys):
    code, out, err = run(capsys, "conjectures", "--type", "A2", "--check", "P1,P2")
    assert (code, out) == (1, "")
    assert err == "error: unknown check 'P2'; choose from P1, P4, P8, P9\n"


def test_labels_that_break_the_text_forms_exit_1(capsys):
    matrix = "[[1,3,2],[3,1,3],[2,3,1]]"
    for labels, bad in (("s,,t", ""), ("a.b,c,d", "a.b"), ("a,b=c,d", "b=c")):
        code, out, err = run(capsys, "group", "--matrix", matrix, "--labels", labels)
        assert (code, out) == (1, ""), labels
        assert err.startswith("error: generator label %r must be" % bad), (labels, err)


def test_unknown_element_label_and_weight_entry_without_value_exit_1(capsys):
    code, out, err = run(
        capsys, "cactus", "act", "--type", "A2", "--word", "s1", "--element", "s1.s9"
    )
    assert (code, out, err) == (1, "", "error: unknown generator in --element: 's9'\n")
    code, out, err = run(capsys, "cells", "--type", "A2", "--weights", "s1=1,s2")
    assert (code, out, err) == (1, "", "error: weight entry 's2' is not of the form gen=value\n")


def test_max_length_must_be_a_nonnegative_int(tmp_path, capsys):
    code, out, err = run(capsys, "group", "--type", "A3", "--max-length", "-1")
    assert code == 1 and out == "" and "max-length" in err
    cfg = tmp_path / "job.json"
    cfg.write_text(json.dumps({"type": "A3", "max_length": "x"}))
    code, out, err = run(capsys, "group", "--config", str(cfg))
    assert code == 1 and out == "" and "max-length" in err


def test_wrongly_typed_config_values_are_usage_errors(tmp_path, capsys):
    cases = [
        ("cellmaps", {"type": "A2", "parabolic": 5}, "--parabolic"),
        ("cellmaps", {"type": "A2", "parabolic": [["s1"]]}, "--parabolic"),
        ("conjectures", {"type": "A2", "check": 5}, "--check"),
        ("conjectures", {"type": "A2", "check": ["P1", 4]}, "--check"),
        ("cells", {"type": "A2", "jobs": "x"}, "--jobs"),
        ("cells", {"type": "A2", "jobs": [2]}, "--jobs"),
    ]
    for command, config, key in cases:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, command, "--config", str(cfg))
        assert (code, out) == (1, ""), config
        assert err.startswith("error: %s must be " % key), (config, err)


def test_wrongly_typed_word_element_weights_and_out_are_usage_errors(tmp_path, capsys):
    cases = [
        (("cactus", "act"), {"type": "A2", "word": 5}, "--word"),
        (("cactus", "act"), {"type": "A2", "word": [["s1", 3]]}, "--word"),
        (("cactus", "act"), {"type": "A2", "word": "s1", "element": 5}, "--element"),
        (("cells",), {"type": "A2", "weights": 5}, "--weights"),
        (("cells",), {"type": "A2", "weights": {"s1": "1", "s2": 1}}, "--weights"),
        (("cells",), {"type": "A2", "out": 5}, "--out"),
    ]
    for command, config, key in cases:
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, *command, "--config", str(cfg))
        assert (code, out) == (1, ""), config
        assert err.startswith("error: %s must be " % key), (config, err)
    # the well-typed config forms still work
    cfg.write_text(json.dumps({"type": "B2", "weights": {"t": [1, 0], "s1": [0, 1]},
                               "word": [["s1"]], "element": "t"}))
    code, out, _ = run(capsys, "cactus", "act", "--config", str(cfg))
    assert code == 0 and json.loads(out)["word"] == "s1"


def test_wrongly_typed_group_config_is_a_usage_error(tmp_path, capsys):
    """The root, type, matrix and labels of a config, and a --matrix or
    --weights flag of the wrong type, each name their key."""
    square = [[1, 3], [3, 1]]
    cases = [
        ([1, 2], (), "--config"),
        ({"type": 5}, (), "--type"),
        ({"matrix": 5}, (), "--matrix"),
        ({"matrix": [[1, 3], 3]}, (), "--matrix"),
        ({"matrix": square, "labels": 5}, (), "--labels"),
        ({"matrix": square, "labels": "ab"}, (), "--labels"),
        ({}, ("--matrix", "5"), "--matrix"),
        ({}, ("--type", "A2", "--weights", "s1=a"), "--weights"),
        ({}, ("--type", "B2", "--weights", "t=1:x,s1=1:0"), "--weights"),
    ]
    cfg = tmp_path / "job.json"
    for config, flags, key in cases:
        cfg.write_text(json.dumps(config))
        code, out, err = run(capsys, "cells", "--config", str(cfg), *flags)
        assert (code, out) == (1, ""), (config, flags)
        assert err.startswith("error: %s must be " % key), (config, flags, err)
    # a config with a matrix and a list of labels still works
    cfg.write_text(json.dumps({"matrix": square, "labels": ["a", "b"]}))
    code, out, _ = run(capsys, "cells", "--config", str(cfg))
    assert code == 0 and json.loads(out)["cells"][0]["members"] == [""]


def test_large_group_gate(capsys):
    code, _, err = run(capsys, "cells", "--matrix", json.dumps(
        [[1, 3, 2, 2, 2], [3, 1, 3, 2, 2], [2, 3, 1, 3, 2], [2, 2, 3, 1, 3], [2, 2, 2, 3, 1]]
    ))
    assert code == 1 and "allow-large" in err  # A5 has order 720
    # named catalog types stay under the ceiling
    assert run(capsys, "cells", "--type", "B4")[0] == 0


def test_infinite_group_rejected_for_cell_commands(capsys):
    code, _, err = run(capsys, "cells", "--matrix", "[[1,0],[0,1]]", "--labels", "s,t")
    assert code == 1 and "finite" in err


def test_theorem_violation_exits_2(monkeypatch, capsys):
    import cactuscells.cli as cli
    from cactuscells.cellmaps import TheoremViolationError

    def boom(*args, **kwargs):
        raise TheoremViolationError("synthetic failure", {"element": "s"})

    monkeypatch.setattr(cli, "parabolic_involutions", boom)
    code, _, err = run(capsys, "cellmaps", "--type", "A3")
    assert code == 2
    assert "synthetic failure" in err and '"element": "s"' in err


def test_stdout_byte_determinism(capsys):
    a = run(capsys, "afunction", "--type", "B2", "--weights", "t=2,s1=1")
    b = run(capsys, "afunction", "--type", "B2", "--weights", "t=2,s1=1")
    assert a == b and a[0] == 0
