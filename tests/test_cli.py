import argparse

import pytest

from quiverglue.cli import _build_parser, main
from quiverglue.fixtures import fixture_text, load_rep
from quiverglue.treemod import format_fragment, fragment_from_coefficient_quiver


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_euler(capsys):
    code, out = run(capsys, "euler", "-q", "K3", "(2,3)", "(2,3)")
    assert code == 0 and out.strip() == "-5"


def test_classify(capsys):
    code, out = run(capsys, "classify", "-q", "K2", "(3,4)")
    assert code == 0
    assert "class: real" in out
    assert "terminal: (1,0)" in out


def test_homext(capsys):
    code, out = run(capsys, "homext", "-q", "K3", "M", "M")
    assert code == 0
    assert "hom: 1" in out and "ext: 6" in out and "euler: -5" in out


def test_extbasis(capsys):
    code, out = run(capsys, "extbasis", "-q", "S4", "Malpha", "Mbeta")
    assert code == 0
    assert "ext: 1" in out
    assert "extbasis 0 0 0 r1 1 1" in out


def test_qm(capsys):
    code, out = run(capsys, "qm", "-q", "S4", "Malpha", "Mbeta")
    assert code == 0
    assert "arrow x1_2_1 m1 m2" in out
    assert "arrow x2_1_1 m2 m1" in out
    assert "extbasis 1 2 1 r1 1 1" in out


def test_glue(capsys, tmp_path):
    x = tmp_path / "x.rep"
    x.write_text(
        "rep X over Q\nquiver QM\ndim m1 1\ndim m2 2\n"
        "map x1_2_1 2x1\n1\n0\nmap x2_1_1 1x2\n0 1\n"
    )
    code, out = run(capsys, "glue", "-q", "S4", "-x", str(x), "Malpha", "Mbeta")
    assert code == 0
    assert "dim q0 3" in out and "dim q3 2" in out


def test_glue_mor_identity(capsys, tmp_path):
    x = tmp_path / "x.rep"
    x.write_text(
        "rep X over Q\nquiver QM\ndim m1 1\ndim m2 2\n"
        "map x1_2_1 2x1\n1\n0\nmap x2_1_1 1x2\n0 1\n"
    )
    f = tmp_path / "f.mor"
    f.write_text("morphism f over Q\nblock m1 1x1\n1\nblock m2 2x2\n1 0\n0 1\n")
    code, out = run(
        capsys, "glue-mor", "-q", "S4", "-x", str(x), "-y", str(x), "-f", str(f),
        "Malpha", "Mbeta",
    )
    assert code == 0
    assert out.startswith("morphism Ff over Q")


def test_loopglue_scalars(capsys):
    code, out = run(capsys, "loopglue", "-q", "K3", "--scalars", "1,1,0,1,1,1", "M")
    assert code == 0
    assert "loops: 6" in out
    assert "map a 3x2\n1 0\n1 0\n0 1" in out


def test_indec_and_schur(capsys):
    code, out = run(capsys, "indec", "M")
    assert code == 0 and "verdict: indecomposable" in out
    code, out = run(capsys, "schur", "M")
    assert code == 0 and "schurian: yes" in out and "end_dim: 1" in out


def test_candecomp_and_determinism(capsys):
    code, first = run(capsys, "candecomp", "-q", "S4", "(3,2,2,1,1)")
    assert code == 0
    assert "summand (2,1,1,1,1) x1" in first
    assert "summand (1,1,1,0,0) x1" in first
    assert "samples: 5" in first and "seed: 0" in first
    code, second = run(capsys, "candecomp", "-q", "S4", "(3,2,2,1,1)")
    assert first == second


def test_perpsimples(capsys):
    code, out = run(capsys, "perpsimples", "-q", "S5", "(1,0,0,0,0,0)")
    assert code == 0
    assert out.count("simple (") == 5


def test_coeffquiver(capsys):
    code, out = run(capsys, "coeffquiver", "M")
    assert code == 0
    assert "arrows: 4" in out and "tree: yes" in out
    code, out = run(capsys, "coeffquiver", "--dot", "M")
    assert code == 0 and out.startswith("digraph")


def test_pushdown(capsys, tmp_path):
    frag = tmp_path / "m.frag"
    frag.write_text(format_fragment(fragment_from_coefficient_quiver(load_rep("M"))))
    code, out = run(capsys, "pushdown", "-q", "K3", str(frag))
    assert code == 0
    assert "tree_shaped: yes" in out
    assert "dim q 2" in out and "dim qp 3" in out


def test_check_seq_pass_and_fail(capsys):
    code, out = run(
        capsys, "check-seq", "-q", "S4", "(3,2,2,1,1)",
        "(1,0,1,0,0)x2", "(1,0,0,1,1)x1", "(0,1,0,0,0)x2",
    )
    assert code == 0
    assert "verification: pass" in out
    code, out = run(capsys, "check-seq", "-q", "S4", "(3,2,2,1,1)", "(1,0,1,0,0)x3")
    assert code == 2
    assert "verification: fail" in out


def test_check_theta_failure_exit(capsys):
    code, out = run(capsys, "check-theta", "-q", "S4", "Mbeta", "Malpha")
    assert code == 2
    assert "condition 2: fail" in out


def test_check_theta_simples_pass(capsys, tmp_path):
    code, out = run(capsys, "check-theta", "-q", "S4", "Malpha", "Mbeta")
    # Ext(Malpha, Mbeta) != 0 in this order as well: conditions report printed
    assert code in (0, 2)
    assert "theta sufficient conditions:" in out


def test_input_errors_exit_one(capsys):
    assert main(["euler", "-q", "NOPE", "(1)", "(1)"]) == 1
    assert main(["classify", "-q", "K2", "(1,2,3)"]) == 1
    assert main(["reproduce", "nope"]) == 1
    assert main(["excdecomp", "-q", "K2", "(1,1)"]) == 1  # Schur root rejected


def test_reproduce_fast_ids(capsys):
    code, out = run(capsys, "reproduce", "k2-jordan")
    assert code == 0 and out.rstrip().endswith("status: ok")
    code, out = run(capsys, "reproduce", "sub4-glue")
    assert code == 0 and out.rstrip().endswith("status: ok")


@pytest.mark.parametrize("vector", ["(1,,1)", "(1,1,)", "(1_0,1)", "(\u0663,1)"])
def test_malformed_vector_entries_exit_one(capsys, vector):
    # an empty entry was skipped and int() read "1_0" as 10 and an Arabic-Indic 3 as 3
    assert main(["candecomp", "-q", "K3", vector]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-integer entry in dimension vector {vector!r}\n"


@pytest.mark.parametrize("coefficient", ["1_0", "١"])
def test_malformed_check_seq_coefficient_exits_one(capsys, coefficient):
    # int() read "1_0" as 10 and an Arabic-Indic 1 as 1
    term = f"(1,0)x{coefficient}"
    assert main(["check-seq", "-q", "K3", "(1,0)", term]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: non-integer coefficient in {term!r}\n"


@pytest.mark.parametrize("token", ["1_0", "١"])
def test_malformed_dim_in_a_file_exits_one(capsys, tmp_path, token):
    # int() read "dim q 1_0" as dimension 10
    path = tmp_path / "x.rep"
    path.write_text(f"rep X over Q\nquiver K3\ndim q {token}\ndim qp 0\n", encoding="utf-8")
    assert main(["schur", "-q", "K3", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 3: expected a natural number, got {token!r}" in captured.err


@pytest.mark.parametrize("modulus", ["1_01", "\u0661\u0660\u0661"])
def test_malformed_modulus_in_a_file_exits_one(capsys, tmp_path, modulus):
    # int() read "over F 1_01" and an Arabic-Indic 101 as F_101
    path = tmp_path / "x.rep"
    path.write_text(f"rep X over F {modulus}\nquiver K2\ndim q 1\ndim qp 0\n", encoding="utf-8")
    assert main(["schur", "-q", "K2", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"line 1: bad modulus {modulus!r}: not an integer" in captured.err


SAMPLING_OPTIONS = {"--samples", "--prime", "--seed", "--bound"}
# the sampling options each command reads; the other 12 commands read none
OPTIONS_READ = {
    "candecomp": {"--samples", "--prime", "--seed"},
    "check-seq": {"--samples", "--prime", "--seed"},
    "excdecomp": SAMPLING_OPTIONS,
    "perpsimples": SAMPLING_OPTIONS,
    "reproduce": SAMPLING_OPTIONS,
    "indec": {"--seed"},
}


def test_each_command_takes_only_the_sampling_options_it_reads():
    (sub,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    taken = {
        name: {o for action in p._actions for o in action.option_strings} & SAMPLING_OPTIONS
        for name, p in sub.choices.items()
    }
    assert len(taken) == 18
    assert taken == {name: OPTIONS_READ.get(name, set()) for name in taken}
    assert sum(len(options) for options in taken.values()) == 19


@pytest.mark.parametrize(
    "argv",
    [
        ["euler", "-q", "K2", "(1,0)", "(0,1)", "--seed", "1"],
        ["candecomp", "-q", "K3", "(1,1)", "--bound", "3"],
    ],
    ids=["euler-seed", "candecomp-bound"],
)
def test_an_option_the_command_does_not_read_exits_one(capsys, argv):
    # every command took all four options, and ignored the ones it does not read
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and "unrecognized arguments" in captured.err


@pytest.mark.parametrize("option", ["--prime", "--seed", "--samples", "--bound"])
@pytest.mark.parametrize("value", ["1_01", "\u0663"])
def test_malformed_integer_options_exit_one(capsys, option, value):
    # int() read "--prime 1_01" as 101 and "--samples" with an Arabic-Indic 3 as 3;
    # candecomp takes no --bound, so that one runs on perpsimples
    command, vector = ("perpsimples", "(1,0)") if option == "--bound" else ("candecomp", "(1,1)")
    assert main([command, "-q", "K3", vector, option, value]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {option}: invalid int value: {value!r}" in captured.err


@pytest.mark.parametrize("prime", ["4", "1"])
def test_non_prime_modulus_exits_one(capsys, prime):
    assert main(["candecomp", "-q", "K3", "(2,2)", "--prime", prime]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "not a prime" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["candecomp", "-q", "K3", "(0,0)"],
        ["candecomp", "-q", "S5", "(10,3,3,3,3,8)"],
        ["excdecomp", "-q", "S4", "(3,2,2,1,1)"],
        ["perpsimples", "-q", "K2", "(1,0)", "(0,1)"],
        ["check-seq", "-q", "S4", "(1,0,1,0,0)", "(1,0,1,0,0)x1"],
        ["reproduce", "sub5-candecomp"],
        ["reproduce", "k2-jordan"],
    ],
    ids=["zero", "acyclic", "excdecomp", "no-perp", "check-seq", "sub5", "no-sampling"],
)
def test_non_prime_modulus_exits_one_before_any_work(capsys, argv):
    # the exact canonical decomposition builds no prime field, nor do the zero
    # vector, a complete sequence or k2-jordan; the header check rejects it
    assert main(argv + ["--prime", "4"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: modulus 4 is not a prime\n"


def test_excdecomp_budget_exhausted_is_unknown(capsys, monkeypatch):
    import quiverglue.decompose

    monkeypatch.setattr(quiverglue.decompose, "MAX_SEARCH_NODES", 1)
    code, out = run(capsys, "excdecomp", "-q", "S4", "(3,2,2,1,1)")
    assert code == 2
    assert "step 2 budget exhausted" in out
    assert "result unknown" in out and "result trivial" not in out


@pytest.mark.parametrize("samples", ["0", "-1"])
def test_samples_below_one_exits_one(capsys, samples):
    assert main(["candecomp", "-q", "K3", "(1,1)", "--samples", samples]) == 1
    err = capsys.readouterr().err
    assert "--samples" in err and "oracle unstable" not in err


@pytest.mark.parametrize("bound", ["-3", "0"])
def test_bound_below_one_exits_one(capsys, bound):
    assert main(["perpsimples", "-q", "K3", "(1,0)", "--bound", bound]) == 1
    err = capsys.readouterr().err
    assert "--bound" in err and "bound exhausted" not in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["excdecomp", "-q", "S5", "(10,3,3,3,3,8)", "--prime", "3"], "bound exhausted over F_3"),
        (
            ["reproduce", "sub8-realroot", "--prime", "2"],
            "failed to sample an exceptional representation at (2,1,1,1,0,0,2,2,0) over F_2",
        ),
    ],
    ids=["excdecomp", "sub8-realroot"],
)
def test_sampling_failure_over_a_small_prime_exits_two(capsys, argv, message):
    # an undecided result, not an input error: a larger prime decides both
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}; try a larger prime\n"


@pytest.mark.parametrize(
    "argv,lines",
    [
        # sampling over F_2 with one sample found no module that split into
        # verified summands (exit 2); the Euler form decides it at any prime
        (
            ["candecomp", "-q", "S4", "(1,1,2,1,1)", "--prime", "2", "--samples", "1"],
            ["samples: 1", "prime: 2", "seed: 0", "summand (1,1,1,1,1) x1", "summand (0,0,1,0,0) x1"],
        ),
        # sampling failed here even over F_(2^31-1): (1,1) is isotropic on K2
        (
            ["candecomp", "-q", "K2", "(10,10)"],
            ["samples: 5", "prime: 2147483647", "seed: 0", "summand (1,1) x10"],
        ),
    ],
    ids=["s4-over-f2", "k2-isotropic"],
)
def test_candecomp_on_an_acyclic_quiver_needs_no_sampling(capsys, argv, lines):
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.out == "\n".join(lines) + "\n"
    assert captured.err == ""


CYCLE_QUIVERS = {
    "c2.quiver": "quiver C2\nvertex a\nvertex b\narrow x a b\narrow y b a\n",
    "c3.quiver": "quiver C3\nvertex a\nvertex b\nvertex c\narrow x a b\narrow y b c\narrow z c a\n",
}


@pytest.mark.parametrize(
    "quiver,vector,summands",
    [
        ("c2.quiver", "(2,1)", ["summand (1,1) x1", "summand (1,0) x1"]),
        ("c2.quiver", "(2,2)", ["summand (1,1) x2"]),
        ("c3.quiver", "(2,1,1)", ["summand (1,1,1) x1", "summand (1,0,0) x1"]),
    ],
)
def test_candecomp_on_an_oriented_cycle_keeps_the_sampled_transcript(
    capsys, tmp_path, quiver, vector, summands
):
    # the Euler-form theory does not cover oriented cycles; these stay sampled
    path = tmp_path / quiver
    path.write_text(CYCLE_QUIVERS[quiver], encoding="utf-8")
    assert main(["candecomp", "-q", str(path), vector]) == 0
    captured = capsys.readouterr()
    header = ["samples: 5", "prime: 2147483647", "seed: 0"]
    assert captured.out == "\n".join(header + summands) + "\n"
    assert captured.err == ""


BOUND_EXHAUSTED = "error: bound exhausted over F_2147483647; try a larger prime\n"


@pytest.mark.parametrize(
    "quiver,argv,code,lines,err",
    [
        # an isotropic Schur root, read off the sampled canonical decomposition
        ("c3.quiver", ["excdecomp", "(1,1,1)"], 1, None,
         "error: (1,1,1) is a Schur root; the algorithm handles non-Schur roots\n"),
        ("c2.quiver", ["excdecomp", "(2,2)"], 1, None, "error: generic ext pattern has an oriented cycle\n"),
        ("c3.quiver", ["excdecomp", "(1,2,2)"], 2, None, BOUND_EXHAUSTED),
        ("c3.quiver", ["perpsimples", "(0,1,1)", "(1,0,0)"], 0, ["side: right", "simple (0,0,1)"], ""),
        ("c3.quiver", ["perpsimples", "(1,0,0)"], 1, None, "error: generic ext pattern has an oriented cycle\n"),
        # every v with <e_a, v> = 0 has v_a = v_b, so <v, v> = 0: the Euler-form
        # filters reject every candidate, and no sampled check is reached
        ("c2.quiver", ["perpsimples", "(1,0)"], 2, None,
         "error: perp search bound 3 exhausted; try a larger --bound\n"),
        (
            "c3.quiver",
            ["check-seq", "(1,1,0)", "(0,1,0)x1", "(1,0,0)x1"],
            0,
            [
                "check sum-identity: pass",
                "check exceptional 1: pass (0,1,0)",
                "check exceptional 2: pass (1,0,0)",
                "check generic-reduced 1 2: pass hom=0 ext=0 backhom=0",
                "check representatives: pass",
                "check root-correspondence: pass real",
                "verification: pass",
            ],
            "",
        ),
        (
            "c2.quiver",
            ["check-seq", "(2,1)", "(1,0)x1", "(1,1)x1"],
            2,
            [
                "check sum-identity: pass",
                "check exceptional 1: pass (1,0)",
                "check exceptional 2: fail (1,1)",
                "check generic-reduced 1 2: pass hom=0 ext=0 backhom=0",
                "check representatives: fail no representation of dimension (1,1) is exceptional:"
                " <a,a> = 0, not 1",
                "verification: fail",
                "sequence verification failed",
            ],
            "",
        ),
    ],
    ids=[
        "excdecomp-schur", "excdecomp-ext-cycle", "excdecomp-bound", "perpsimples",
        "perpsimples-ext-cycle", "perpsimples-bound", "check-seq-pass", "check-seq-fail",
    ],
)
def test_oriented_cycle_commands_keep_their_sampled_transcripts(
    capsys, tmp_path, quiver, argv, code, lines, err
):
    # the Schur tests on an oriented cycle read the sampled canonical
    # decomposition; these transcripts were recorded while they sampled End(X)
    path = tmp_path / quiver
    path.write_text(CYCLE_QUIVERS[quiver], encoding="utf-8")
    assert main([argv[0], "-q", str(path), *argv[1:]]) == code
    captured = capsys.readouterr()
    header = ["samples: 5", "prime: 2147483647", "seed: 0"]
    assert captured.out == ("" if lines is None else "\n".join(header + lines) + "\n")
    assert captured.err == err


@pytest.mark.parametrize("prime", ["2", "3", "101", "2147483647"])
def test_perpsimples_suggests_a_larger_bound_where_no_sampled_check_ran(capsys, prime):
    # up to the default bound 3 no vector right-perpendicular to (1,0) on K3
    # has <v, v> = 1, so no prime can help; the first simple is (3,1)
    assert main(["perpsimples", "-q", "K3", "(1,0)", "--prime", prime]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: perp search bound 3 exhausted; try a larger --bound\n"
    code = main(["perpsimples", "-q", "K3", "(1,0)", "--prime", prime, "--bound", "4"])
    captured = capsys.readouterr()
    if prime == "2":
        # the sampled Hom rejects (3,1) over F_2, so now a larger prime may help
        assert code == 2
        assert captured.err == "error: bound exhausted over F_2; try a larger prime\n"
    else:
        assert code == 0
        assert captured.out.splitlines()[-2:] == ["side: right", "simple (3,1)"]


@pytest.mark.parametrize(
    "body,root",
    [
        # <(1,0), (1,0)> = 1, and no bound could find its perpendicular simple:
        # this once exited 2 with "try a larger --bound"
        ("vertex a\nvertex b\narrow x a b\narrow l b b\n", "(1,0)"),
        # this once reached classify_root at (1,1,0), which rejects a quiver with a loop
        ("vertex a\nvertex b\nvertex c\narrow x a b\narrow y b c\narrow l c c\n", "(1,0,0)"),
    ],
    ids=["bound", "classify"],
)
@pytest.mark.parametrize("side", ["left", "right"])
def test_perpsimples_on_a_quiver_with_a_loop_exits_one(capsys, tmp_path, body, root, side):
    path = tmp_path / "loop.quiver"
    path.write_text("quiver L\n" + body + "allows_loops\n", encoding="utf-8")
    assert main(["perpsimples", "-q", str(path), "--side", side, root, "--bound", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: perpendicular simples require a loop-free quiver\n"


@pytest.mark.parametrize("vector,prime", [("(1,1,1,1,1)", "2"), ("(2,1,1,1,2)", "3")])
def test_excdecomp_on_a_schur_root_exits_one_over_a_small_prime(capsys, vector, prime):
    # the Schur test is the exact canonical decomposition at every prime; the
    # sampled End(X) over F_2 and F_3 missed these Schur roots and went on to
    # print "result trivial"
    assert main(["excdecomp", "-q", "S4", vector, "--prime", prime]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {vector} is a Schur root; the algorithm handles non-Schur roots\n"


def test_a_merge_defect_exits_two_without_a_traceback(capsys, monkeypatch, tmp_path):
    # a form under which the closest pair (a, c) with <e_c, e_a> < 0 has b
    # between them with <e_b, e_a> = <e_c, e_b> = 1: neither side takes b
    import quiverglue.decompose

    form = {(1, 0): 1, (2, 1): 1, (2, 0): -1}

    def fake(q, x, y):
        return sum(
            x[i] * y[j] * form.get((i, j), int(i == j)) for i in range(3) for j in range(3)
        )

    monkeypatch.setattr(quiverglue.decompose, "euler_form_unchecked", fake)
    path = tmp_path / "t.quiver"
    path.write_text("quiver T\nvertex a\nvertex b\nvertex c\n", encoding="utf-8")
    assert main(["candecomp", "-q", str(path), "(1,1,1)"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: no merge order for (1,0,0) x1 and (0,0,1) x1 past (0,1,0); "
        "this is a program defect\n"
    )


def test_perpsimples_more_roots_than_vertices_exits_one(capsys):
    roots = ["(1,0,0,0,0)", "(0,1,0,0,0)", "(0,0,1,0,0)", "(0,0,0,1,0)", "(0,0,0,0,1)", "(1,1,0,0,0)"]
    assert main(["perpsimples", "-q", "S4", *roots]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:")


@pytest.mark.parametrize(
    "argv, message",
    [
        # the zero vector and a vector with <a,a> = 4 printed simples and exited 0
        (["perpsimples", "-q", "K3", "(0,0)"], "(0,0) is not a nonzero non-negative vector"),
        (["perpsimples", "-q", "K3", "(2,0)"], "(2,0) has <r,r> = 4"),
        (["perpsimples", "-q", "K3", "--side", "left", "(1,-1)"], "(1,-1) is not a nonzero"),
        # a negative root was sampled as a module and gave hom=-2 ext=-3
        (["check-seq", "-q", "K3", "(1,1)", "(-1,0)x1", "(2,1)x1"], "(-1,0) has a negative entry"),
    ],
    ids=["perp-zero", "perp-norm-4", "perp-left-negative", "check-seq-negative"],
)
def test_vectors_outside_exceptional_sequences_exit_one(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err


BAD_REPS = {
    "negative dim": "rep X over Q\nquiver K2\ndim q -1\n",
    "non-numeric dim": "rep X over Q\nquiver K2\ndim q x\n",
    "negative map shape": "rep X over Q\nquiver K2\ndim q 1\ndim qp 1\nmap a -1x1\n",
    "three-part map shape": "rep X over Q\nquiver K2\ndim q 1\ndim qp 1\nmap a 1x1x1\n1\n",
}


@pytest.mark.parametrize("text", list(BAD_REPS.values()), ids=list(BAD_REPS))
def test_bad_rep_file_exits_one(capsys, tmp_path, text):
    path = tmp_path / "bad.rep"
    path.write_text(text)
    assert main(["indec", "-q", "K2", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: line ") and "Traceback" not in captured.err


def test_bad_morphism_block_shape_exits_one(capsys, tmp_path):
    x = tmp_path / "x.rep"
    x.write_text("rep X over Q\nquiver QM\ndim m1 1\ndim m2 0\n")
    f = tmp_path / "f.mor"
    f.write_text("morphism f over Q\nblock m1 -1x1\n")
    code = main(
        ["glue-mor", "-q", "S4", "-x", str(x), "-y", str(x), "-f", str(f), "Malpha", "Mbeta"]
    )
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err.startswith("error: line 2:") and "Traceback" not in captured.err


def test_bad_fragment_dim_exits_one(capsys, tmp_path):
    text = format_fragment(fragment_from_coefficient_quiver(load_rep("M")))
    lines = text.splitlines()
    first_dim = next(i for i, ln in enumerate(lines) if ln.startswith("dim "))
    lines[first_dim] = lines[first_dim].rsplit(" ", 1)[0] + " -2"
    frag = tmp_path / "bad.frag"
    frag.write_text("\n".join(lines) + "\n")
    assert main(["pushdown", "-q", "K3", str(frag)]) == 1
    captured = capsys.readouterr()
    assert "natural number" in captured.err and "Traceback" not in captured.err



@pytest.mark.parametrize(
    "extra,message",
    (("dim zz 4", "unknown fragment vertex 'zz'"), ("map zz 1x1\n1", "unknown fragment arrow 'zz'")),
)
def test_fragment_line_for_an_undeclared_id_exits_one(capsys, tmp_path, extra, message):
    # dim and map lines name ids that vertex and arrow lines declare, as in rep files
    text = format_fragment(fragment_from_coefficient_quiver(load_rep("M")))
    frag = tmp_path / "bad.frag"
    frag.write_text(text + extra + "\n")
    assert main(["pushdown", "-q", "K3", str(frag)]) == 1
    captured = capsys.readouterr()
    line = len(text.splitlines()) + 1
    assert captured.err.strip() == f"error: line {line}: {message}"
    assert captured.out == ""

# the tree-shaped basis of Ext(M, M), one element replaced by an entry outside its 3x2 block
M_TREE_BASIS = ("a 1 1", "a 2 1", "b 1 2", "b 3 2", "c 1 2", "c 3 2")


@pytest.mark.parametrize("entry", ["a 1 3", "a 1 9", "a 4 1", "z 1 1"])
def test_loopglue_out_of_range_basis_entry_exits_one(capsys, tmp_path, entry):
    # col 3 was read as E(2, 1), the element it replaced, and col 9 was an IndexError
    bases = tmp_path / "m.bases"
    lines = [f"extbasis 1 1 {l} {entry if e == 'a 2 1' else e}" for l, e in enumerate(M_TREE_BASIS, 1)]
    bases.write_text("\n".join(lines) + "\n")
    argv = ["loopglue", "-q", "K3", "--bases", str(bases), "--scalars", "1,1,0,1,1,1", "M"]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: supplied self-extension basis is not a basis\n"


@pytest.mark.parametrize("entry", ["r1 1 5", "r1 2 1"])
def test_qm_out_of_range_basis_entry_exits_one(capsys, tmp_path, entry):
    bases = tmp_path / "qm.bases"
    bases.write_text(f"extbasis 1 2 1 {entry}\nextbasis 2 1 1 r3 1 1\n")
    assert main(["qm", "-q", "S4", "--bases", str(bases), "Malpha", "Mbeta"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: supplied Ext basis for pair (1,2) is not a basis\n"


QM_X = "rep X over Q\nquiver QM\ndim m1 1\ndim m2 2\nmap x1_2_1 2x1\n1\n0\nmap x2_1_1 1x2\n0 1\n"


@pytest.mark.parametrize(
    "argv, code",
    [
        (["homext", "M", "M"], 0),
        (["extbasis", "Malpha", "{dir}/Mbeta.rep"], 1),
        (["qm", "Malpha", "Mbeta"], 0),
        (["glue", "-x", "{dir}/x.rep", "Malpha", "Mbeta"], 0),
        (["glue-mor", "-x", "{dir}/x.rep", "-y", "{dir}/x.rep", "-f", "{dir}/f.mor", "Malpha", "Mbeta"], 0),
        (["loopglue", "--scalars", "1,1,0,1,1,1", "M"], 0),
        (["check-theta", "{dir}/Mbeta.rep", "Malpha"], 1),
    ],
    ids=lambda v: v[0] if isinstance(v, list) else None,
)
def test_missing_quiver_option_does_not_traceback(capsys, tmp_path, argv, code):
    # without -q these commands ended in a TypeError traceback
    (tmp_path / "x.rep").write_text(QM_X)
    (tmp_path / "f.mor").write_text("morphism f over Q\nblock m1 1x1\n2\nblock m2 2x2\n2 0\n0 2\n")
    (tmp_path / "Mbeta.rep").write_text(fixture_text("mbeta.rep"))
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == code
    captured = capsys.readouterr()
    if code == 0:
        assert captured.err == "" and captured.out
    else:
        assert captured.err.startswith("error: a quiver (-q) is required to load ")


@pytest.mark.parametrize(
    "argv, named",
    [
        (["homext", "-q", "K3", "M", "{dir}/M101.rep"], ("M", "{dir}/M101.rep")),
        (["qm", "-q", "K3", "M", "{dir}/M101.rep"], ("M", "{dir}/M101.rep")),
        (["check-theta", "-q", "K3", "M", "{dir}/M101.rep"], ("M", "{dir}/M101.rep")),
        (["glue-mor", "-q", "S4", "-x", "{dir}/x.rep", "-y", "{dir}/x.rep", "-f", "{dir}/f101.mor",
          "Malpha", "Mbeta"], ("{dir}/x.rep", "{dir}/f101.mor")),
        (["glue", "-q", "S4", "-x", "{dir}/x101.rep", "Malpha", "Mbeta"],
         ("Malpha", "{dir}/x101.rep")),
        (["loopglue", "-q", "K3", "-x", "{dir}/l101.rep", "M"], ("M", "{dir}/l101.rep")),
    ],
    ids=["homext", "qm", "check-theta", "glue-mor", "glue", "loopglue"],
)
def test_inputs_over_different_fields_exit_one(capsys, tmp_path, argv, named):
    # the FieldMismatchError these raise went past cli.main as a traceback, and
    # then named the two fields but not the inputs that carry them
    (tmp_path / "M101.rep").write_text(fixture_text("m5.rep").replace(" over Q", " over F 101"))
    (tmp_path / "x.rep").write_text(QM_X)
    (tmp_path / "x101.rep").write_text(QM_X.replace(" over Q", " over F 101"))
    (tmp_path / "l101.rep").write_text("rep X over F 101\nquiver L6\ndim m 1\n")
    (tmp_path / "f101.mor").write_text(
        "morphism f over F 101\nblock m1 1x1\n1\nblock m2 2x2\n1 0\n0 1\n"
    )
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 1
    captured = capsys.readouterr()
    first, second = (name.replace("{dir}", str(tmp_path)) for name in named)
    assert captured.out == ""
    assert captured.err == f"error: field mismatch: {first} is over Q, {second} is over F_101\n"


def test_loopglue_scalars_are_field_entries(capsys):
    # the scalars were read with int(): 1/2 and x both ended in a ValueError traceback
    code, out = run(capsys, "loopglue", "-q", "K3", "--scalars", "1,1/2,0,1,1,1", "M")
    assert code == 0 and "map a 3x2\n1 0\n1/2 0\n0 1" in out
    assert main(["loopglue", "-q", "K3", "--scalars", "1,x,0,1,1,1", "M"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: bad entry in --scalars: ")


def test_morphism_naming_another_quiver_exits_one(capsys, tmp_path):
    # parse_morphism ignored its quiver line, so this glued with exit 0
    (tmp_path / "x.rep").write_text(QM_X)
    (tmp_path / "f.mor").write_text(
        "morphism f over Q\nquiver K3\nblock m1 1x1\n1\nblock m2 2x2\n1 0\n0 1\n"
    )
    argv = ["glue-mor", "-q", "S4", "-x", "{dir}/x.rep", "-y", "{dir}/x.rep", "-f", "{dir}/f.mor",
            "Malpha", "Mbeta"]
    assert main([a.replace("{dir}", str(tmp_path)) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: line 2: morphism references quiver 'K3', expected 'QM'\n"
