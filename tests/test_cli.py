import json

import pytest

from posaut.automaton import FormatError, emit_dpa, parse_dpa
from posaut.cli import main
from posaut.games import emit_arena, GameArena, EVE
from posaut.ugraph import parse_mgraph
from posaut.zoo import (
    aut_buchi_a_or_reach_aa,
    aut_inf_a_or_fin_bb,
    aut_min_letter_even,
    aut_reach_aa,
)

from conftest import SEED_58_DPA


def write(path, aut):
    path.write_text(emit_dpa(aut), encoding="utf-8")
    return str(path)


def test_positional_exit_codes(tmp_path, capsys):
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    assert main(["positional", fig3, "--method", "both"]) == 0
    assert main(["positional", reach, "--method", "both"]) == 1
    out = capsys.readouterr().out
    assert "not-positional" in out
    assert "witness: progress u=- w=b a" in out
    # exit codes stable across methods
    for method in ("signature", "completion"):
        assert main(["positional", fig3, "--method", method]) == 0
        assert main(["positional", reach, "--method", method]) == 1


def test_member_example(tmp_path, capsys):
    b = write(tmp_path / "b.dpa", aut_buchi_a_or_reach_aa())
    assert main(["member", b, "--u", "-", "--v", "b"]) == 0
    assert capsys.readouterr().out.strip() == "rejected"
    assert main(["member", b, "--u", "a a", "--v", "b"]) == 0
    assert capsys.readouterr().out.strip() == "accepted"


def test_validate_and_normalize(tmp_path, capsys):
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    assert main(["validate", fig3]) == 0
    out_path = tmp_path / "norm.dpa"
    assert main(["normalize", fig3, "-o", str(out_path)]) == 0
    norm = parse_dpa(out_path.read_text())
    assert norm.validate() == []


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.dpa"
    bad.write_text("dpa\nalphabet: a\nstates: x\n", encoding="utf-8")
    assert main(["validate", str(bad)]) == 2
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    sig = tmp_path / "fig3.sig"
    assert main(["signature", fig3, "-o", str(sig)]) == 0
    lines = sig.read_text().splitlines()
    assert lines[-3:] == ["preorder: 0 0 1 1", "preorder: 1 0 1 1", "preorder: 2 0 1 2"]
    body = lines[:-3]
    capsys.readouterr()
    for pre, error in (
        (["preorder:"], "line 16: preorder needs"),
        (["preorder: 0 0 1 1", "preorder: 2 0 1 2"], "line 17: missing preorder level 1"),
        ([], "missing preorder lines"),
    ):
        bad = tmp_path / "bad.sig"
        bad.write_text("\n".join(body + pre) + "\n", encoding="utf-8")
        assert main(["ugraph", str(bad), "-n", "1"]) == 2
        assert error in capsys.readouterr().err
    with pytest.raises(FormatError, match="line 4: edge names undeclared vertex 'z'"):
        parse_mgraph("mgraph\nalphabet: a\norder: x y\nedge: x a z\n")


def test_bipositional(tmp_path):
    occ = write(tmp_path / "occ.dpa", aut_min_letter_even(4))
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    assert main(["bipositional", occ]) == 0
    assert main(["bipositional", reach]) == 1


def test_signature_complete_ugraph(tmp_path, capsys):
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    sig = tmp_path / "fig3.sig"
    assert main(["signature", fig3, "-o", str(sig)]) == 0
    comp = tmp_path / "fig3c.dpa"
    assert main(["complete", fig3, "-o", str(comp)]) == 0
    completed = parse_dpa(comp.read_text())
    assert completed.has_eps
    mg = tmp_path / "fig3.mgraph"
    assert main(["ugraph", str(sig), "-n", "2", "-o", str(mg)]) == 0
    assert mg.read_text().startswith("mgraph")
    # 3976 sinkless graphs of size <= 2 over three letters exceed --limit
    argv = ["--limit", "1000", "ugraph", str(sig), "-n", "2", "--check-universality", "2"]
    assert main(argv) == 2
    assert "3976 sinkless graphs" in capsys.readouterr().err


def test_json_format(tmp_path, capsys):
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    assert main(["--format", "json", "positional", fig3, "--method", "signature"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "positional"
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    assert main(["--format", "json", "positional", reach, "--method", "both"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["verdict"] == "not-positional"
    assert payload["witness"]["w"] == ["b", "a"]


def test_solve_and_oracle(tmp_path, capsys):
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    arena = GameArena(
        3,
        (EVE, EVE, EVE),
        ((0, "b", 1), (1, "a", 0), (0, "a", 2), (2, "b", 0)),
        ("a", "b"),
    )
    apath = tmp_path / "g.arena"
    apath.write_text(emit_arena(arena), encoding="utf-8")
    assert main(["solve", str(apath), reach]) == 0
    out = capsys.readouterr().out
    assert any(line.startswith("win: 0 0") for line in out.splitlines())
    assert main(["oracle", str(apath), reach]) == 1
    assert "no" in capsys.readouterr().out


def test_gadget_command(tmp_path, capsys):
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    out = tmp_path / "g.arena"
    code = main(
        [
            "gadget",
            "progress",
            reach,
            "-o",
            str(out),
            "--u",
            "-",
            "--w",
            "b a",
            "--wprime",
            "- | a b",
        ]
    )
    assert code == 0
    text = out.read_text()
    assert text.startswith("arena")
    # gadget validates: eve wins from designated, no uniform strategy
    assert main(["oracle", str(out), reach]) == 1
    capsys.readouterr()
    for argv, error in (
        (["residual", reach], "gadget residual needs --w1 --w2"),
        (["progress", reach, "--w", "b a"], "gadget progress needs --wprime"),
        (["completion", reach, "--q", "0"], "gadget completion needs --p --x"),
        (["completion", reach, "--q", "0", "--p", "9", "--x", "0"], "state 9 out of range"),
        (["two-loops", reach, "--u0", "z", "--l1", "a", "--l2", "b"], "edge letter 'z' not in alphabet"),
    ):
        out.unlink(missing_ok=True)
        assert main(["gadget", argv[0], argv[1], "-o", str(out)] + argv[2:]) == 2
        assert error in capsys.readouterr().err
        assert not out.exists()


def test_zoo_and_seed_reproducibility(tmp_path, capsys):
    out = tmp_path / "z.dpa"
    assert main(["zoo", "reach_aa", "-o", str(out)]) == 0
    assert parse_dpa(out.read_text()).n_states == 3
    sig = tmp_path / "p.sig"
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    main(["signature", fig3, "-o", str(sig)])
    first = sig.read_text()
    main(["signature", fig3, "-o", str(sig)])
    assert sig.read_text() == first


def test_seed_58_two_loops_round_trip(tmp_path, capsys):
    dpa = tmp_path / "seed58.dpa"
    dpa.write_text(SEED_58_DPA, encoding="utf-8")
    assert main(["--format", "json", "positional", str(dpa), "--method", "signature"]) == 1
    loops = json.loads(capsys.readouterr().out)["witness"]["loops"]
    arena = tmp_path / "g.arena"
    args = ["gadget", "two-loops", str(dpa), "-o", str(arena)]
    for key in ("u0", "l1", "l2"):
        args += [f"--{key}", " ".join(loops[key]) or "-"]
    assert main(["--format", "json"] + args) == 0
    designated = json.loads(capsys.readouterr().out)["designated"]
    assert main(["--format", "json", "solve", str(arena), str(dpa)]) == 0
    wins = json.loads(capsys.readouterr().out)["wins"]
    initial = parse_dpa(SEED_58_DPA).initial
    assert all([v, initial] in wins for v in designated)
    assert main(["oracle", str(arena), str(dpa)]) == 1
    assert capsys.readouterr().out.strip() == "no"
