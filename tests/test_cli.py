import hashlib
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


def test_non_integer_limit_is_an_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("POSAUT_LIMIT", "abc")
    out = str(tmp_path / "x.dpa")
    assert main(["zoo", "reach_aa", "-o", out]) == 2
    assert capsys.readouterr().err == "error: POSAUT_LIMIT must be an integer, got 'abc'\n"
    # --limit takes the place of the variable
    assert main(["--limit", "10", "zoo", "reach_aa", "-o", out]) == 0
    monkeypatch.setenv("POSAUT_LIMIT", "5")
    arena = tmp_path / "g.arena"
    arena.write_text(emit_arena(GameArena(1, (EVE,), ((0, "a", 0),) * 6, ("a", "b"))))
    assert main(["oracle", str(arena), out]) == 2
    assert "strategy space exceeds bound 5" in capsys.readouterr().err


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
    header = "dpa\nalphabet: a\nstates: 2\ninitial: 0\npriorities: 0 1\ndeterministic: true\n"
    for trans in ("trans: 0 a 0 5\n", "trans: 7 a 1 0\n"):
        bad.write_text(header + trans + "trans: 1 a 0 0\n", encoding="utf-8")
        for args in (["validate"], ["normalize", "-o", str(tmp_path / "out.dpa")], ["positional"]):
            assert main(args[:1] + [str(bad)] + args[1:]) == 2, (trans, args)
            captured = capsys.readouterr()
            assert "references an unknown state" in captured.out + captured.err, args
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
        (
            ["preorder: 0 1 0 1", "preorder: 1 0 1 1", "preorder: 2 0 1 2"],
            "invalid signature certificate: level 1 does not refine level 0",
        ),
    ):
        bad = tmp_path / "bad.sig"
        bad.write_text("\n".join(body + pre) + "\n", encoding="utf-8")
        assert main(["ugraph", str(bad), "-n", "1"]) == 2
        assert error in capsys.readouterr().err
    with pytest.raises(FormatError, match="line 4: edge names undeclared vertex 'z'"):
        parse_mgraph("mgraph\nalphabet: a\norder: x y\nedge: x a z\n")
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    for body, error in (
        ("vertex: x eve\n", "line 3: bad vertex id 'x'"),
        ("vertex: 0 eve\nedge: 0 a y\n", "line 4: bad edge fields '0 a y'"),
    ):
        bad = tmp_path / "bad.arena"
        bad.write_text("arena\nalphabet: a b\n" + body, encoding="utf-8")
        assert main(["solve", str(bad), reach]) == 2
        assert error in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "extra, message",
    [
        (["-n", "0"], "bound must be at least 1"),
        (["-n", "-2"], "bound must be at least 1"),
        (["-n", "2", "--check-universality", "0"], "graph size bound must be at least 1"),
        (["-n", "2", "--check-universality", "-1"], "graph size bound must be at least 1"),
    ],
)
def test_ugraph_rejects_empty_bounds(tmp_path, capsys, extra, message):
    # an empty graph, or no graph size, would pass every check vacuously;
    # both are rejected before anything is printed
    fig3 = write(tmp_path / "fig3.dpa", aut_inf_a_or_fin_bb())
    for fmt in ([], ["--format", "json"]):
        assert main(fmt + ["ugraph", fig3] + extra) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""


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
    # --wdet automata that are invalid or lack the objective's letter b
    header = "dpa\nstates: 2\ninitial: 0\npriorities: 0 1\ndeterministic: true\n"
    for name, body in (
        ("state", "alphabet: a b\ntrans: 0 a 0 5\ntrans: 0 b 0 1\ntrans: 1 a 0 0\ntrans: 1 b 1 1\n"),
        ("priority", "alphabet: a b\ntrans: 0 a 5 0\ntrans: 0 b 0 1\ntrans: 1 a 0 0\ntrans: 1 b 1 1\n"),
        ("letter", "alphabet: a\ntrans: 0 a 0 1\ntrans: 1 a 0 0\n"),
    ):
        (tmp_path / f"{name}.dpa").write_text(header + body, encoding="utf-8")
    completion = ["completion", reach, "--q", "1", "--p", "0", "--x", "0", "--wdet"]
    for argv, error in (
        (completion + [str(tmp_path / "state.dpa")], "references an unknown state"),
        (completion + [str(tmp_path / "priority.dpa")], "priority outside [0, 1]"),
        (completion + [str(tmp_path / "letter.dpa")], "w_det has no transitions on 'b'"),
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


def test_completion_gadget_objective_text(tmp_path, capsys):
    # the objective `--obj-out` writes, pinned by the digest of its text:
    # 6 states (w_det's 3 times 2 leaves) over 8 tokens
    reach = write(tmp_path / "reach.dpa", aut_reach_aa())
    obj = tmp_path / "obj.dpa"
    argv = ["gadget", "completion", reach, "--q", "1", "--p", "0", "--x", "0"]
    assert main(argv + ["-o", str(tmp_path / "g.arena"), "--obj-out", str(obj)]) == 0
    assert "designated: [0, 3, 6]" in capsys.readouterr().out
    text = obj.read_bytes()
    assert text.startswith(b"dpa\nalphabet: a_0_n a_0_s a_1_n b_0_n b_0_s b_1_n eps_0_n eps_1_e\nstates: 6\n")
    assert text.count(b"\ntrans: ") == 48
    digest = "fb5ed290d42e31a057e4982aeeb4a6cc20c5f0732c7f3a81ae5921f77c73cafc"
    assert hashlib.sha256(text).hexdigest() == digest


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
