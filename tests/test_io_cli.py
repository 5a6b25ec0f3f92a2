import time
from fractions import Fraction

import pytest

from cellforest import io as cfio, linalg
from cellforest.cli import main
from cellforest.complexes import SimplicialComplex, from_facets
from cellforest.families import hypercube_complex, named_complex, named_simplicial
from cellforest.oracle import enumerate_forests

from goldens import GOLDENS, in_process, render, through_processes


class TestComplexFormat:
    def test_facets_round_trip(self):
        S = named_simplicial("bipyramid")
        text = cfio.serialize_complex(S)
        again = cfio.parse_any(text)
        assert isinstance(again, SimplicialComplex)
        assert again.facets == S.facets
        assert cfio.serialize_complex(again) == text

    def test_matrix_round_trip(self):
        X = hypercube_complex(3)
        text = cfio.serialize_complex(X)
        again = cfio.parse_any(text)
        assert again.boundaries[1:] == X.boundaries[1:]
        assert cfio.serialize_complex(again) == text

    def test_parse_compiles_facets(self):
        text = "dim 1\nfacets 3\n1 2\n1 3\n2 3\n"
        X = cfio.parse_complex(text)
        assert X.dim == 1
        assert X.n_cells(1) == 3

    def test_comments_and_blanks_ignored(self):
        text = "# a triangle\n\ndim 1\nfacets 3\n1 2\n1 3\n\n2 3\n"
        assert cfio.parse_complex(text).n_cells(0) == 3

    def test_dual_round_trip(self):
        from cellforest.complexes import dual_complex, skeleton
        from cellforest.oracle import tau_bruteforce

        Y = dual_complex(skeleton(hypercube_complex(3), 2))
        text = cfio.serialize_complex(Y)
        again = cfio.parse_complex(text)
        assert again.boundaries[1:] == Y.boundaries[1:]
        assert tau_bruteforce(again, 1) == tau_bruteforce(Y, 1)

    def test_reserialize_is_idempotent(self):
        for text in (
            cfio.serialize_complex(named_simplicial("moebius")),
            cfio.serialize_complex(named_complex("rp2_cell")),
        ):
            once = cfio.serialize_complex(cfio.parse_any(text))
            assert once == text
            assert cfio.serialize_complex(cfio.parse_any(once)) == once

    def test_bad_header(self):
        with pytest.raises(cfio.FormatError):
            cfio.parse_complex("facets 1\n1 2\n")

    def test_facet_count_mismatch(self):
        with pytest.raises(cfio.FormatError):
            cfio.parse_complex("dim 1\nfacets 2\n1 2\n")

    def test_matrix_shape_mismatch(self):
        bad = "dim 2\nmatrix 1 1 1\n0\nmatrix 2 2 1\n2\n0\n"
        with pytest.raises(cfio.FormatError):
            cfio.parse_complex(bad)


class TestWeightFormat:
    def test_round_trip(self):
        w = cfio.parse_weights("0 0 1\n0 1 3/7\n1 0 2\n")
        assert w[(0, 1)] == Fraction(3, 7)
        text = cfio.serialize_weights(w)
        assert text == "0 0 1\n0 1 3/7\n1 0 2\n"
        assert cfio.serialize_weights(cfio.parse_weights(text)) == text

    def test_duplicate_rejected(self):
        with pytest.raises(cfio.FormatError):
            cfio.parse_weights("0 0 1\n0 0 2\n")


class TestCensusExport:
    def test_lines(self, k3):
        lines = [cfio.census_line(k3.labels(1), f, t) for f, t in enumerate_forests(k3).forests]
        assert lines == ["1,2 1,3 ; 1\n", "1,2 2,3 ; 1\n", "1,3 2,3 ; 1\n"]

    def test_lines_follow_cell_indices_not_label_strings(self, tmp_path):
        # a 12-cycle in matrix form, edges labelled 1:0 .. 1:11: the tree that
        # drops edge j comes before the one that drops j - 1, and 1:10 follows
        # 1:9 within a line, where string order puts 1:10 before 1:2
        cycle = from_facets(12, [{i, i % 12 + 1} for i in range(1, 13)]).to_chain_complex()
        path, census = tmp_path / "c12.txt", tmp_path / "census.txt"
        path.write_text(cfio.serialize_complex(cycle))
        assert cfio.parse_complex(path.read_text()).labels(1)[10] == "1:10"
        assert main(["tau", str(path), "--method", "bruteforce", "--census", str(census)]) == 0
        lines = census.read_text().splitlines()
        assert lines == [
            " ".join(f"1:{i}" for i in range(12) if i != drop) + " ; 1" for drop in range(11, -1, -1)
        ]
        assert lines != sorted(lines)
        assert all(labels != sorted(labels) for labels in (line[:-4].split() for line in lines))


class TestCli:
    def test_gen_simplex_skeleton(self, tmp_path, capsys):
        assert main(["gen", "simplex-skeleton", "6", "2"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("dim 2\nfacets 20\n")

    def test_gen_named_and_tau(self, tmp_path):
        path = tmp_path / "bipyramid.txt"
        assert main(["gen", "named", "bipyramid", "--out", str(path)]) == 0
        out_path = tmp_path / "tau.txt"
        assert main(["tau", str(path), "--k", "2", "--method", "reduced", "--out", str(out_path)]) == 0
        text = out_path.read_text()
        assert "value: 15" in text
        assert "cap:" in text and "seed:" in text

    def test_tau_alternating_rp2(self, tmp_path):
        path = tmp_path / "rp2.txt"
        main(["gen", "named", "rp2_six_vertex", "--out", str(path)])
        out_path = tmp_path / "tau.txt"
        assert main(["tau", str(path), "--method", "alternating", "--out", str(out_path)]) == 0
        assert "value: 4" in out_path.read_text()

    def test_tau_bruteforce_matches(self, tmp_path):
        path = tmp_path / "moebius.txt"
        main(["gen", "named", "moebius", "--out", str(path)])
        out_path = tmp_path / "tau.txt"
        assert main(["tau", str(path), "--method", "cobase", "--out", str(out_path)]) == 0
        a = out_path.read_text()
        assert main(["tau", str(path), "--method", "bruteforce", "--out", str(out_path)]) == 0
        b = out_path.read_text()
        assert "value: 1" in a and "value: 1" in b

    def test_hypothesis_failure_exit_code(self, tmp_path, capsys):
        path = tmp_path / "moebius.txt"
        main(["gen", "named", "moebius", "--out", str(path)])
        code = main(["tau", str(path), "--method", "alternating"])
        assert code == 2
        assert "hypothesis failure" in capsys.readouterr().err

    def test_cobase_on_formal_dual_names_the_condition(self, tmp_path, capsys):
        from cellforest.complexes import dual_complex, skeleton

        path = tmp_path / "dual.txt"
        X = skeleton(dual_complex(named_complex("rp2_six_vertex")), 1)
        path.write_text(cfio.serialize_complex(X))
        assert main(["tau", str(path), "--method", "cobase"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: d_0 d_1 != 0 at level 0")
        assert "augmentation check" in err

    def test_cap_exceeded_exit_code(self, tmp_path, capsys):
        path = tmp_path / "k62.txt"
        main(["gen", "simplex-skeleton", "6", "2", "--out", str(path)])
        code = main(["tau", str(path), "--method", "bruteforce", "--cap", "10"])
        assert code == 3

    def test_cap_reaches_the_cobase_spectral_enumeration(self, tmp_path, capsys):
        path = tmp_path / "rp2.txt"
        main(["gen", "named", "rp2_six_vertex", "--out", str(path)])
        capsys.readouterr()
        assert main(["tau", str(path), "--method", "cobase-spectral", "--cap", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cap exceeded: cobase enumeration at k=1 needs 3003 subsets, cap is 1\n"
        assert main(["tau", str(path), "--method", "cobase-spectral", "--cap", "3003"]) == 0
        out = capsys.readouterr().out
        assert "value: 4\n" in out and out.endswith("cap: 3003\n")

    def test_cobase_spectral_refuses_by_the_cap_before_any_char_poly(self, tmp_path, capsys, monkeypatch):
        # L_2 of K_12^3 is 220 x 220; the refusal needs only the subset count
        path = tmp_path / "k12_3.txt"
        main(["gen", "simplex-skeleton", "12", "3", "--out", str(path)])
        calls = []
        real = linalg.char_poly
        monkeypatch.setattr(linalg, "char_poly", lambda M: calls.append(M.shape) or real(M))
        assert main(["tau", str(path), "--method", "cobase-spectral"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "cap exceeded: cobase enumeration at k=2 needs "
            "33164717560744863320014019902508389350606763137995632 subsets, cap is 5000000\n"
        )
        assert calls == []

    def test_verify_cap_reaches_the_cobase_spectral_rows(self):
        from cellforest.verify import run_suite

        def row(cap):
            (r,) = [r for r in run_suite("theorems", cap=cap)
                    if r.instance == "rp2-six-vertex" and r.check == "cobase-spectral"]
            return r.got, r.want

        assert row(None) == ("4", "4")
        assert row(1000) == ("skipped", "cap exceeded")

    def test_homology_checks_the_augmentation_composition(self, tmp_path, capsys, monkeypatch):
        from cellforest import cli
        from cellforest.complexes import dual_complex

        levels, homology = [], cli.homology
        monkeypatch.setattr(cli, "homology", lambda X, k: levels.append(k) or homology(X, k))
        # the formal dual's vertex layer has no augmentation, and d_0 d_1 != 0 there
        path = tmp_path / "dual.txt"
        path.write_text(cfio.serialize_complex(dual_complex(named_complex("bipyramid"))))
        assert main(["homology", str(path)]) == 2
        # level 0 is refused before its rank and Smith form are taken
        assert levels == []
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: d_0 d_1 != 0 at level 0 "
            "(formal duals and matrix-form input skip the augmentation check)\n"
        )
        assert main(["homology", str(path), "--k", "1"]) == 0
        assert capsys.readouterr().out.startswith("dim 2\nk=1 betti=")

    def test_critical_refuses_dimension_zero(self, tmp_path, capsys):
        path = tmp_path / "points.txt"
        main(["gen", "simplex-skeleton", "4", "0", "--out", str(path)])
        assert main(["critical", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: critical groups need dimension at least 1, got dimension 0\n"

    def test_dimension_zero_chain_complex_round_trips(self, tmp_path, capsys):
        # matrix blocks carry no vertex count, so dim 0 is written in facets form
        path = tmp_path / "points.txt"
        assert main(["gen", "hypercube-skeleton", "3", "0", "--out", str(path)]) == 0
        text = path.read_text()
        assert text == "dim 0\nfacets 8\n" + "".join(f"{v}\n" for v in range(1, 9))
        assert cfio.serialize_complex(cfio.parse_complex(text)) == text
        assert main(["homology", str(path)]) == 0
        assert capsys.readouterr().out == "dim 0\nk=0 betti=7 torsion=1 factors=-\n"

    def test_gen_hypercube_block_sizes(self, capsys):
        assert main(["gen", "hypercube", "3"]) == 0
        out = capsys.readouterr().out
        assert "matrix 1 8 12" in out
        assert "matrix 2 12 6" in out
        assert "matrix 3 6 1" in out

    def test_gen_other_families(self, capsys):
        assert main(["gen", "hypercube-skeleton", "3", "2"]) == 0
        assert "matrix 2 12 6" in capsys.readouterr().out
        assert main(["gen", "colorful", "2", "2", "2"]) == 0
        assert "facets 8" in capsys.readouterr().out
        assert main(["gen", "ferrers", "2", "1"]) == 0
        assert "facets 3" in capsys.readouterr().out
        assert main(["gen", "shifted", "2,3,5"]) == 0
        assert "facets 7" in capsys.readouterr().out

    @pytest.mark.parametrize("argv, message", [
        (["simplex-skeleton", "5"], "simplex-skeleton takes 2 parameters (n d), got 1"),
        (["hypercube", "1", "2"], "hypercube takes 1 parameter (n), got 2"),
        (["hypercube-skeleton", "3", "1", "2"], "hypercube-skeleton takes 2 parameters (n k), got 3"),
        (["named", "bipyramid", "extra"], "named takes 1 parameter (name), got 2"),
    ])
    def test_gen_refuses_a_wrong_parameter_count(self, capsys, argv, message):
        assert main(["gen", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_homology_rejects_nonzero_composition(self, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        path.write_text("dim 2\nmatrix 1 2 1\n-1\n1\nmatrix 2 1 1\n1\n")
        assert main(["homology", str(path)]) == 2
        assert capsys.readouterr().err == "error: boundary composition at dimension 2 is nonzero\n"

    def test_homology_of_a_ten_vertex_simplex(self, tmp_path, capsys):
        # one facet expands to 2^10 - 1 faces; a simplex has no reduced homology
        path = tmp_path / "simplex.txt"
        path.write_text("dim 9\nfacets 1\n" + " ".join(map(str, range(1, 11))) + "\n")
        assert main(["homology", str(path)]) == 0
        out = capsys.readouterr().out
        assert out == "dim 9\n" + "".join(f"k={k} betti=0 torsion=1 factors=-\n" for k in range(10))

    def test_homology_output(self, tmp_path, capsys):
        path = tmp_path / "rp2.txt"
        main(["gen", "named", "rp2_cell", "--out", str(path)])
        assert main(["homology", str(path)]) == 0
        out = capsys.readouterr().out
        assert "k=1 betti=0 torsion=2 factors=2" in out

    def test_critical_output(self, tmp_path, capsys):
        path = tmp_path / "b.txt"
        main(["gen", "named", "bipyramid", "--out", str(path)])
        assert main(["critical", str(path)]) == 0
        out = capsys.readouterr().out
        assert "k=1 group=Z/15 order=15 reduced_agrees=yes" in out
        assert "relations=ok" in out

    def test_rooted_poly_output(self, tmp_path, capsys):
        path = tmp_path / "k3.txt"
        main(["gen", "simplex-skeleton", "3", "1", "--out", str(path)])
        assert main(["rooted-poly", str(path)]) == 0
        out = capsys.readouterr().out
        assert "z^1: 9" in out and "z^2: 6" in out and "z^3: 1" in out

    def test_weights_file(self, tmp_path):
        cpath = tmp_path / "k3.txt"
        main(["gen", "simplex-skeleton", "3", "1", "--out", str(cpath)])
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 0 1/2\n1 1 3\n1 2 5\n")
        out_path = tmp_path / "tau.txt"
        assert main(["tau", str(cpath), "--method", "bruteforce", "--weights", str(wpath), "--out", str(out_path)]) == 0
        assert "value: 19" in out_path.read_text()  # 3/2 + 5/2 + 15

    def test_zero_denominator_weight_exit_code(self, tmp_path, capsys):
        cpath = tmp_path / "k3.txt"
        main(["gen", "simplex-skeleton", "3", "1", "--out", str(cpath)])
        wpath = tmp_path / "w.txt"
        wpath.write_text("1 0 1/0\n1 1 3\n1 2 5\n")
        capsys.readouterr()
        assert main(["tau", str(cpath), "--weights", str(wpath)]) == 2
        assert capsys.readouterr().err == "error: weight has a zero denominator: '1 0 1/0'\n"

    @pytest.mark.parametrize("value", ["1e3", "0.5", "1e1000000"])
    def test_weight_outside_the_format_exit_code(self, tmp_path, capsys, value):
        # Fraction alone would take these, and 1e1000000 as a 3.3-million-bit integer
        cpath = tmp_path / "k42.txt"
        main(["gen", "simplex-skeleton", "4", "2", "--out", str(cpath)])
        wpath = tmp_path / "w.txt"
        wpath.write_text(f"2 0 3\n2 1 {value}\n")
        capsys.readouterr()
        start = time.perf_counter()
        assert main(["tau", str(cpath), "--method", "weighted-alternating", "--weights", str(wpath)]) == 2
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == f"error: weight must be an integer or p/q: '2 1 {value}'\n"

    @pytest.mark.parametrize("case", ["matrix entry", "weight", "facet vertex"])
    def test_bad_integer_token_names_the_line(self, tmp_path, capsys, case):
        # int() alone would report its digit limit or an invalid literal, with no line
        long = "7" * 5000
        cpath = tmp_path / "c.txt"
        wpath = tmp_path / "w.txt"
        argv = ["tau", str(cpath)]
        if case == "matrix entry":
            bad = f"{long} -1"
            cpath.write_text(f"dim 1\nmatrix 1 1 2\n{bad}\n")
        elif case == "weight":
            main(["gen", "simplex-skeleton", "3", "1", "--out", str(cpath)])
            bad = f"1 0 {long}"
            wpath.write_text(f"{bad}\n1 1 3\n1 2 5\n")
            argv += ["--weights", str(wpath)]
        else:
            bad = "1 x"
            cpath.write_text(f"dim 1\nfacets 2\n1 2\n{bad}\n")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(bad) in err and "set_int_max_str_digits" not in err

    @pytest.mark.parametrize("text, bad", [
        ("dim 1\nfacets 1\n1 2_0\n", "1 2_0"),
        ("dim 1\nfacets 1\n1 \u0663\n", "1 \u0663"),
        ("dim 1\nmatrix 1 1 1\n\u0663\n", "\u0663"),
    ])
    def test_integer_token_outside_the_format_exit_code(self, tmp_path, capsys, text, bad):
        # int() alone reads 2_0 as 20 and the Arabic-Indic digit three as 3
        path = tmp_path / "c.txt"
        path.write_text(text, encoding="utf-8")
        assert main(["homology", str(path)]) == 2
        assert capsys.readouterr().err == f"error: expected integers: {bad!r}\n"

    @pytest.mark.parametrize("text, message", [
        ("dim 0\n", "dim 0 needs a facets block: matrix blocks give no vertex count"),
        ("dim 1\nmatrix 1 2 1\n-1\n1\nmatrix 1 2 1\n1\n-1\n", "matrix 1 given twice: 'matrix 1 2 1'"),
    ])
    @pytest.mark.parametrize("command", ["homology", "critical", "tau", "rooted-poly"])
    def test_matrix_blocks_that_miss_or_repeat_exit_code(self, tmp_path, capsys, text, message, command):
        path = tmp_path / "c.txt"
        path.write_text(text)
        assert main([command, str(path)]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_signed_integer_tokens_stay_legal(self):
        assert cfio.parse_any("dim +1\nfacets +1\n+1 +3\n").facets == {frozenset({1, 3})}

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_facet_count_below_one_exit_code(self, tmp_path, capsys, count):
        path = tmp_path / "c.txt"
        path.write_text(f"dim 1\nfacets {count}\n")
        assert main(["homology", str(path)]) == 2
        assert capsys.readouterr().err == f"error: facet count must be at least 1: 'facets {count}'\n"

    def test_homology_rejects_a_negative_betti_number(self, tmp_path, capsys):
        # one vertex and one edge with boundary 1: rank d_1 = 1 exceeds nullity d_0 = 0,
        # which matrix-form input reaches because its augmentation is not checked
        path = tmp_path / "c.txt"
        path.write_text("dim 1\nmatrix 1 1 1\n1\n")
        assert main(["homology", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: d_0 d_1 != 0 at level 0 "
            "(formal duals and matrix-form input skip the augmentation check)\n"
        )

    @pytest.mark.parametrize("method", ["weighted-alternating", "algebraic-weighted", "bruteforce"])
    def test_missing_weight_exit_code(self, tmp_path, capsys, method):
        cpath = tmp_path / "k42.txt"
        main(["gen", "simplex-skeleton", "4", "2", "--out", str(cpath)])
        wpath = tmp_path / "w.txt"
        wpath.write_text("2 0 3\n")
        capsys.readouterr()
        assert main(["tau", str(cpath), "--method", method, "--weights", str(wpath)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: missing weight for a ") and err.count("\n") == 1

    def test_census_needs_the_bruteforce_method(self, tmp_path, capsys):
        cpath, census = tmp_path / "bipyramid.txt", tmp_path / "census.txt"
        main(["gen", "named", "bipyramid", "--out", str(cpath)])
        assert main(["tau", str(cpath), "--method", "reduced", "--census", str(census)]) == 2
        assert capsys.readouterr().err == "error: --census needs --method bruteforce\n"
        assert not census.exists()

    @pytest.mark.parametrize("refusal, code, err", [
        (["--cap", "1"], 3, "cap exceeded: forest census at k=2 needs 4 subsets, cap is 1\n"),
        (["--weights", "{weights}"], 2, "error: missing weight for a 2-cell\n"),
    ])
    def test_refused_census_writes_no_file(self, tmp_path, capsys, refusal, code, err):
        cpath, wpath, census = tmp_path / "k42.txt", tmp_path / "w.txt", tmp_path / "census.txt"
        main(["gen", "simplex-skeleton", "4", "2", "--out", str(cpath)])
        wpath.write_text("2 0 3\n")
        capsys.readouterr()
        argv = ["tau", str(cpath), "--method", "bruteforce", "--census", str(census)]
        assert main(argv + [arg.format(weights=wpath) for arg in refusal]) == code
        assert capsys.readouterr().err == err
        assert not census.exists()

    def test_census_export_flag(self, tmp_path):
        cpath = tmp_path / "k3.txt"
        main(["gen", "simplex-skeleton", "3", "1", "--out", str(cpath)])
        census_path = tmp_path / "census.txt"
        out_path = tmp_path / "tau.txt"
        assert main([
            "tau", str(cpath), "--method", "bruteforce",
            "--census", str(census_path), "--out", str(out_path),
        ]) == 0
        assert census_path.read_text() == "1,2 1,3 ; 1\n1,2 2,3 ; 1\n1,3 2,3 ; 1\n"

    def test_verify_deterministic(self, tmp_path):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        assert main(["verify", "critical", "--seed", "7", "--out", str(a)]) == 0
        assert main(["verify", "critical", "--seed", "7", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()
        assert "RESULT: pass" in a.read_text()

    def test_verify_duality(self, tmp_path):
        out = tmp_path / "d.txt"
        assert main(["verify", "duality", "--out", str(out)]) == 0
        assert "RESULT: pass" in out.read_text()

    @pytest.mark.parametrize("golden", GOLDENS, ids=lambda g: g.name)
    def test_output_matches_its_golden_file(self, golden):
        # a timed entry runs in separate interpreters, so that a Smith form
        # whose entries explode fails the test instead of hanging the suite
        run = in_process if golden.timeout is None else (lambda argv: through_processes(argv, golden.timeout))
        assert render(golden, run) == golden.pinned()

    def test_unknown_family_usage_error(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["gen", "mystery", "1"])
        assert err.value.code == 2
