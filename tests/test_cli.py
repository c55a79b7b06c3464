import io
import json

import pytest

from sparsedisc import cli, graphs, orderings
from sparsedisc.cli import main
from sparsedisc.graphs import Graph, generate_family, random_degenerate_graph, read_edge_list
from sparsedisc.orderings import LinearOrder, wcol_from_order, weak_reach


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGen:
    def test_sylvester_header(self, tmp_path, capsys):
        out_file = tmp_path / "s2.edges"
        code, out, _ = run(capsys, "gen", "sylvester", "2", "-o", str(out_file))
        assert code == 0
        assert out_file.read_text().splitlines()[0] == "n 8"
        assert json.loads(out)["n"] == 8

    def test_stdout_edge_list(self, capsys):
        code, out, _ = run(capsys, "gen", "cycle", "4")
        assert code == 0
        g = read_edge_list(io.StringIO(out))
        assert g.n == 4 and g.edge_count() == 4

    def test_gnp_deterministic_stdout(self, capsys):
        _, a, _ = run(capsys, "gen", "gnp", "20", "1", "2", "--seed", "7")
        _, b, _ = run(capsys, "gen", "gnp", "20", "1", "2", "--seed", "7")
        assert a == b

    def test_bad_params_exit_2(self, capsys):
        code, _, err = run(capsys, "gen", "grid", "0", "4")
        assert code == 2 and err


class TestDisc:
    @pytest.fixture()
    def c5(self, tmp_path, capsys):
        path = tmp_path / "c5.edges"
        run(capsys, "gen", "cycle", "5", "-o", str(path))
        return path

    def test_exact_neighborhood(self, c5, capsys):
        code, out, _ = run(capsys, "disc", "exact", "-i", str(c5), "--system", "neighborhood")
        assert code == 0
        assert json.loads(out) == {"disc": 2}

    def test_bad_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["disc", "exact", "--badflag"])
        assert exc.value.code == 2

    def test_eval_round_trip(self, c5, tmp_path, capsys):
        sys_file = tmp_path / "c5.json"
        code, out, _ = run(capsys, "system", "neighborhood", "-i", str(c5))
        sys_file.write_text(out)
        col_file = tmp_path / "chi.txt"
        code, out, _ = run(
            capsys, "disc", "exact", "-i", str(sys_file), "-o", str(col_file)
        )
        assert code == 0
        code, out, _ = run(
            capsys, "disc", "eval", "-i", str(sys_file), "--coloring", str(col_file)
        )
        assert code == 0
        assert json.loads(out)["disc"] == 2

    def test_herdisc(self, c5, capsys):
        code, out, _ = run(
            capsys, "disc", "herdisc", "-i", str(c5), "--system", "neighborhood",
            "--budget", "64",
        )
        assert code == 0
        assert json.loads(out)["lower_bound"] == 2

    def test_spectral(self, c5, capsys):
        code, out, _ = run(capsys, "disc", "spectral", "-i", str(c5), "--system", "neighborhood")
        assert code == 0
        num, den = json.loads(out)["bound"].split("/")
        assert 0 < int(num) / int(den) < 2

    def test_spectral_ground_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.edges"
        run(capsys, "gen", "grid", "12", "12", "-o", str(path))
        code, out, err = run(
            capsys, "disc", "spectral", "-i", str(path), "--system", "neighborhood"
        )
        assert code == 3 and out == "" and "ground <= 128" in err

    def test_exact_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "big.edges"
        run(capsys, "gen", "grid", "5", "5", "-o", str(path))
        code, _, err = run(
            capsys, "disc", "exact", "-i", str(path), "--system", "neighborhood"
        )
        assert code == 3 and "resource" in err


class TestColor:
    def test_beck_fiala_report_schema(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        run(capsys, "gen", "grid", "4", "4", "-o", str(path))
        code, out, _ = run(
            capsys, "color", "beck-fiala", "-i", str(path), "--system", "neighborhood"
        )
        assert code == 0
        report = json.loads(out)
        assert set(report) == {"disc", "bound", "degree", "rounds"}
        assert report["disc"] <= report["bound"]

    def test_power_certificate(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        run(capsys, "gen", "grid", "4", "4", "-o", str(path))
        code, out, _ = run(capsys, "color", "power", "-i", str(path), "--d", "2")
        assert code == 0
        cert = json.loads(out)
        assert cert["achieved"] < cert["claimed_bound"]
        assert cert["reach_profile"][0] == 1

    def test_qf_color(self, tmp_path, capsys):
        struct = tmp_path / "m.json"
        struct.write_text(
            json.dumps({"n": 5, "functions": {"f": [1, 2, 3, 4, 0]}, "predicates": {}})
        )
        formula = tmp_path / "phi.txt"
        formula.write_text("f(x1)=y1")
        code, out, _ = run(
            capsys, "color", "qf", "-i", str(struct), "--formula", str(formula)
        )
        assert code == 0
        report = json.loads(out)
        assert report["achieved"][0] <= report["bound"]

    def test_qf_deep_nesting_exit_3(self, tmp_path, capsys):
        struct = tmp_path / "m.json"
        struct.write_text(json.dumps({"n": 2, "functions": {}, "predicates": {}}))
        formula = tmp_path / "phi.txt"
        formula.write_text("(" * 3000 + "x1=y1" + ")" * 3000)
        code, out, err = run(
            capsys, "color", "qf", "-i", str(struct), "--formula", str(formula)
        )
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("resource limit: ")


class TestSystemAndApprox:
    def test_system_power(self, tmp_path, capsys):
        path = tmp_path / "p.edges"
        run(capsys, "gen", "path", "4", "-o", str(path))
        code, out, _ = run(capsys, "system", "power", "-i", str(path), "--d", "2")
        assert code == 0
        data = json.loads(out)
        assert data["ground_size"] == 4

    def test_system_power_incidence_cap_exit_3(self, tmp_path, capsys, monkeypatch):
        # the square of a path of 4 lists 10 incidences
        path = tmp_path / "p.edges"
        run(capsys, "gen", "path", "4", "-o", str(path))
        monkeypatch.setattr(graphs, "INPUT_CAP", 9)
        code, out, err = run(capsys, "system", "power", "-i", str(path), "--d", "2")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "graph power capped at 9 incidences" in err

    def test_system_defined(self, tmp_path, capsys):
        struct = tmp_path / "m.json"
        struct.write_text(json.dumps({"n": 3, "functions": {}, "predicates": {}}))
        formula = tmp_path / "phi.txt"
        formula.write_text("x1=y1")
        code, out, _ = run(
            capsys, "system", "defined", "-i", str(struct), "--formula", str(formula)
        )
        assert code == 0
        assert json.loads(out)["sets"] == [[0], [1], [2]]

    def _defined(self, tmp_path, capsys, structure, text):
        struct = tmp_path / "m.json"
        struct.write_text(json.dumps(structure))
        formula = tmp_path / "phi.txt"
        formula.write_text(text)
        return run(capsys, "system", "defined", "-i", str(struct), "--formula", str(formula))

    def test_defined_table_cap_exit_3(self, tmp_path, capsys):
        structure = {"n": 3, "functions": {}, "predicates": {}}
        code, out, err = self._defined(tmp_path, capsys, structure, "x10=y10")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("resource limit: ")

    def test_defined_cell_cap_exit_3(self, tmp_path, capsys):
        # 2^23 rows by 23 columns: refused before the table is built
        structure = {"n": 2, "functions": {"f": [1, 0]}, "predicates": {}}
        code, out, err = self._defined(tmp_path, capsys, structure, "f(x1)=y1 & f(x1)=y22")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and "cells" in err

    @pytest.mark.parametrize("text", ["A(x1) | g(x1)=y1", "!A(x1) & Q(y1)"])
    def test_defined_unknown_symbol_exit_2(self, tmp_path, capsys, text):
        structure = {"n": 3, "functions": {"f": [1, 2, 0]}, "predicates": {"A": [0, 1, 2]}}
        code, out, err = self._defined(tmp_path, capsys, structure, text)
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("verb", [["system", "defined"], ["color", "qf"]])
    @pytest.mark.parametrize(
        "text, message",
        [("A(x1) | g(x1)=y1", "unknown function 'g'"), ("!A(x1) & Q(y1)", "unknown predicate 'Q'")],
    )
    def test_unknown_symbol_message_unquoted(self, tmp_path, capsys, verb, text, message):
        # the KeyError's message itself, not the repr that str() gives it
        struct = tmp_path / "m.json"
        struct.write_text(
            json.dumps({"n": 3, "functions": {"f": [1, 2, 0]}, "predicates": {"A": [0, 1, 2]}})
        )
        formula = tmp_path / "phi.txt"
        formula.write_text(text)
        code, out, err = run(capsys, *verb, "-i", str(struct), "--formula", str(formula))
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_defined_unknown_symbol_on_empty_domain_exit_2(self, tmp_path, capsys):
        structure = {"n": 0, "functions": {}, "predicates": {}}
        code, out, err = self._defined(tmp_path, capsys, structure, "Q(x1) | g(y1)=x1")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ") and "unknown" in err

    @pytest.mark.parametrize("verb", [["system", "defined"], ["color", "qf"]])
    def test_z_variable_exit_2(self, tmp_path, capsys, verb):
        structure = {"n": 3, "functions": {"f": [1, 2, 0]}, "predicates": {}}
        struct = tmp_path / "m.json"
        struct.write_text(json.dumps(structure))
        formula = tmp_path / "phi.txt"
        formula.write_text("f(x1)=z1")
        code, out, err = run(capsys, *verb, "-i", str(struct), "--formula", str(formula))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    def test_defined_unknown_variable_named(self, tmp_path, capsys):
        structure = {"n": 3, "functions": {}, "predicates": {}}
        code, out, err = self._defined(tmp_path, capsys, structure, "x1=z1")
        assert code == 2 and out == ""
        assert err == (
            "error: unknown variable 'z1' at position 3"
            " (variables are x1, x2, ... and y1, y2, ...)\n"
        )

    def test_edge_color_system(self, tmp_path, capsys):
        path = tmp_path / "k3.edges"
        run(capsys, "gen", "complete", "3", "-o", str(path))
        colors = tmp_path / "gamma.txt"
        colors.write_text("0 1 2\n0 2 1\n1 2 1\n")
        code, out, _ = run(
            capsys, "system", "edge-color", "-i", str(path), "--colors", str(colors)
        )
        assert code == 0
        assert json.loads(out)["sets"] == [[0], [0, 1], [1], [2]]

    @pytest.mark.parametrize(
        "gamma, message",
        [
            ("0 1 2\n0 2 x\n1 2 1\n", "error: malformed color line 2\n"),
            ("0 1 2\n0 2 3\n1 2 1\n", "error: edge (0,2) has color 3, not 1 or 2\n"),
            ("0 1 1\n0 2 1\n1 2 1\n1 0 2\n", "error: repeated edge (0,1) at color line 4\n"),
            ("0 1 2\n0 2 1\n1 2 1\n0 77 1\n", "error: (0,77) is colored but is not an edge\n"),
        ],
    )
    def test_edge_color_bad_colors(self, tmp_path, capsys, gamma, message):
        path = tmp_path / "k3.edges"
        run(capsys, "gen", "complete", "3", "-o", str(path))
        colors = tmp_path / "gamma.txt"
        colors.write_text(gamma)
        code, out, err = run(
            capsys, "system", "edge-color", "-i", str(path), "--colors", str(colors)
        )
        assert code == 2 and out == ""
        assert err == message

    def test_approx_build_and_verify(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        run(capsys, "gen", "grid", "8", "8", "-o", str(path))
        code, out, _ = run(
            capsys, "approx", "build", "-i", str(path), "--system", "neighborhood",
            "--eps", "1/4",
        )
        assert code == 0
        report = json.loads(out)
        sample_file = tmp_path / "sample.txt"
        sample_file.write_text(" ".join(str(v) for v in report["sample"]))
        code, out, _ = run(
            capsys, "approx", "verify", "-i", str(path), "--system", "neighborhood",
            "--eps", "1/4", "--sample", str(sample_file),
        )
        assert code == 0
        verdict = json.loads(out)
        assert verdict["ok"] and verdict["net"]


class TestOrder:
    def test_order_report(self, tmp_path, capsys):
        path = tmp_path / "c5.edges"
        run(capsys, "gen", "cycle", "5", "-o", str(path))
        code, out, _ = run(capsys, "order", "-i", str(path), "--exact-d", "1")
        assert code == 0
        report = json.loads(out)
        assert report["degeneracy"] == 2
        assert report["wcol_exact"] == 3
        assert report["wcol_from_order"]["1"] == 3

    def test_wcol_matches_the_library(self, route, tmp_path, capsys):
        # the report reads every radius from one wcol_profile call; the
        # library reads each from its own wcol_from_order call, on the
        # route under test
        corpus = [Graph(0, ()), Graph(4, ((),) * 4), generate_family("path", [3])]
        corpus += [generate_family("grid", [3, 4]), random_degenerate_graph(40, 3, 5)]
        corpus += [Graph.from_edges(9, [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7)])]
        for i, g in enumerate(corpus):
            path = tmp_path / f"g{i}.edges"
            with open(path, "w") as fh:
                graphs.write_edge_list(g, fh)
            code, out, _ = run(capsys, "order", "-i", str(path), "--d", "4")
            assert code == 0
            report = json.loads(out)
            order = LinearOrder.from_sequence(report["order"])
            assert report["wcol_from_order"] == {
                str(d): wcol_from_order(g, order, d) for d in range(1, 5)
            }, g

    def test_orderings_cap_exit_3(self, tmp_path, capsys):
        path = tmp_path / "p12.edges"
        run(capsys, "gen", "path", "12", "-o", str(path))
        code, _, _ = run(capsys, "order", "-i", str(path), "--exact-d", "1")
        assert code == 3

    def test_missing_file_exit_2(self, capsys):
        code, _, _ = run(capsys, "order", "-i", "/nonexistent.edges")
        assert code == 2


class TestOrderFileRoundTrip:
    def test_order_file_feeds_power_coloring(self, tmp_path, capsys):
        path = tmp_path / "g.edges"
        run(capsys, "gen", "grid", "3", "4", "-o", str(path))
        order_file = tmp_path / "order.txt"
        code, _, _ = run(capsys, "order", "-i", str(path), "-o", str(order_file))
        assert code == 0
        assert len(order_file.read_text().split()) == 12
        code, out, _ = run(
            capsys, "color", "power", "-i", str(path), "--d", "2",
            "--order", str(order_file),
        )
        assert code == 0
        cert = json.loads(out)
        assert cert["order"] == [int(t) for t in order_file.read_text().split()]


class TestMalformedInputExit2:
    """Malformed inputs end with exit code 2 and a one-line message."""

    @pytest.fixture()
    def c5(self, tmp_path, capsys):
        path = tmp_path / "c5.edges"
        run(capsys, "gen", "cycle", "5", "-o", str(path))
        return path

    def _power_with_order(self, c5, tmp_path, capsys, text):
        order_file = tmp_path / "order.txt"
        order_file.write_text(text)
        return run(
            capsys, "color", "power", "-i", str(c5), "--d", "2", "--order", str(order_file)
        )

    def test_order_vertex_out_of_range(self, c5, tmp_path, capsys):
        code, out, err = self._power_with_order(c5, tmp_path, capsys, "0 1 2 3 9\n")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "order file" in err

    def test_short_order_file(self, c5, tmp_path, capsys):
        code, out, err = self._power_with_order(c5, tmp_path, capsys, "0 1 2\n")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "order file" in err

    def test_order_vertex_repeated(self, c5, tmp_path, capsys):
        code, out, err = self._power_with_order(c5, tmp_path, capsys, "0 1 2 2 4\n")
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "exactly once" in err

    @pytest.mark.parametrize("element", [3, -1])
    def test_system_json_element_outside_ground(self, tmp_path, capsys, element):
        # 3 is the ground size itself
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"ground_size": 3, "sets": [[0, 1], [element, 2]]}))
        code, out, err = run(capsys, "color", "beck-fiala", "-i", str(path), "--system", "json")
        assert code == 2 and out == ""
        assert err == "error: set element out of ground range\n"

    @pytest.mark.parametrize(
        "text",
        ["[1,2]", '{"ground_size": 3, "sets": 3}', '{"ground_size": "3", "sets": [[0]]}'],
    )
    def test_system_json_of_wrong_shape(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out, err = run(capsys, "color", "beck-fiala", "-i", str(path))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize(
        "text",
        [
            "[1,2]",
            '{"functions": {}}',
            '{"n": "3"}',
            '{"n": 3, "functions": [1, 2]}',
            '{"n": 3, "functions": {"f": 3}}',
            '{"n": 3, "predicates": {"A": [0, "1"]}}',
        ],
    )
    def test_structure_json_of_wrong_shape(self, tmp_path, capsys, text):
        path = tmp_path / "s.json"
        path.write_text(text)
        formula = tmp_path / "phi.txt"
        formula.write_text("f(x1)=y1")
        code, out, err = run(capsys, "color", "qf", "-i", str(path), "--formula", str(formula))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")

    @pytest.mark.parametrize("sample", ["0 1 77", "0 -1"])
    def test_approx_sample_outside_ground_set(self, c5, tmp_path, capsys, sample):
        sample_file = tmp_path / "sample.txt"
        sample_file.write_text(sample)
        code, out, err = run(
            capsys, "approx", "verify", "-i", str(c5), "--system", "neighborhood",
            "--eps", "1/2", "--sample", str(sample_file),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "ground set" in err

    @pytest.mark.parametrize("eps", ["2", "0", "3/2"])
    def test_approx_verify_eps_outside_unit_interval(self, c5, tmp_path, capsys, eps):
        # verify checks eps as build does, even where the sample would pass
        sample_file = tmp_path / "sample.txt"
        sample_file.write_text("0 1 2 3 4")
        code, out, err = run(
            capsys, "approx", "verify", "-i", str(c5), "--system", "neighborhood",
            "--eps", eps, "--sample", str(sample_file),
        )
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and "eps must lie in (0, 1]" in err

    @pytest.mark.parametrize(
        "argv, option",
        [
            (["system", "edge-color", "-i", "{c5}"], "--colors"),
            (["system", "defined", "-i", "{c5}"], "--formula"),
            (["disc", "eval", "-i", "{c5}", "--system", "neighborhood"], "--coloring"),
            (
                ["approx", "verify", "-i", "{c5}", "--system", "neighborhood",
                 "--eps", "1/2"],
                "--sample",
            ),
        ],
    )
    def test_missing_required_option(self, c5, capsys, argv, option):
        code, out, err = run(capsys, *(a.format(c5=c5) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and f"needs {option}" in err

    def test_color_qf_needs_formula(self, tmp_path, capsys):
        path = tmp_path / "s.json"
        path.write_text('{"n": 3}')
        code, out, err = run(capsys, "color", "qf", "-i", str(path))
        assert code == 2 and out == ""
        assert err == "error: color qf needs --formula\n"

    @pytest.mark.parametrize(
        "argv, words",
        [
            # -1/2 reads as an option, so --eps has no value
            (
                ["approx", "build", "-i", "{c5}", "--system", "neighborhood", "--eps", "-1/2"],
                "argument --eps: expected one argument",
            ),
            (["color", "power", "--d", "x"], "argument --d: invalid int value: 'x'"),
            (["order", "--bogus"], "the following arguments are required: -i/--input"),
        ],
    )
    def test_argparse_errors_are_one_line(self, c5, capsys, argv, words):
        with pytest.raises(SystemExit) as exc:
            main([a.format(c5=c5) for a in argv])
        out, err = capsys.readouterr()
        assert exc.value.code == 2 and out == ""
        assert err == f"error: {words}\n"

    def test_help_still_exits_0(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["order", "--help"])
        out, err = capsys.readouterr()
        assert exc.value.code == 0 and err == ""
        assert out.startswith("usage: sparsedisc order")

    @pytest.mark.parametrize(
        "argv, words",
        [
            (["gen", "gnp", "5", "2", "1"], "bad parameters [5, 2, 1]"),
            (["order", "-i", "{c5}", "--d", "-2"], "--d must be non-negative"),
            (
                ["disc", "herdisc", "-i", "{c5}", "--system", "neighborhood", "--budget", "-5"],
                "budget must be at least 1",
            ),
            (["order", "-i", "{c5}", "--exact-d", "-1"], "radius must be non-negative"),
            (
                ["order", "-i", "{c5}", "--exact-d", "1", "--cap-orderings", "-1"],
                "cap must be non-negative",
            ),
            (
                ["disc", "exact", "-i", "{c5}", "--system", "neighborhood", "--cap-exact-n", "-1"],
                "cap must be non-negative",
            ),
            (
                ["disc", "herdisc", "-i", "{c5}", "--system", "neighborhood", "--cap-exact-n", "-1"],
                "cap must be non-negative",
            ),
            (
                ["approx", "build", "-i", "{c5}", "--system", "neighborhood", "--eps", "2"],
                "eps must lie in (0, 1]",
            ),
        ],
    )
    def test_out_of_range_numeric_option(self, c5, capsys, argv, words):
        code, out, err = run(capsys, *(a.format(c5=c5) for a in argv))
        assert code == 2 and out == ""
        assert err.count("\n") == 1 and words in err

    @pytest.fixture()
    def p20(self, tmp_path, capsys):
        path = tmp_path / "p20.edges"
        run(capsys, "gen", "path", "20", "-o", str(path))
        return path

    def test_power_radius_cap_exit_3(self, p20, capsys):
        # n*d = 2*10^7: refused before any pass, not a MemoryError
        code, out, err = run(capsys, "color", "power", "-i", str(p20), "--d", "1000000")
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("resource limit: ")

    def test_order_radius_past_the_diameter(self, p20, capsys):
        # one weak-reach pass gives every radius; each root's BFS ends when
        # its frontier empties, so the radius past 19 costs little
        code, out, err = run(capsys, "order", "-i", str(p20), "--d", "1000")
        assert code == 0 and err == "" and out.count("\n") == 1
        wcol = json.loads(out)["wcol_from_order"]
        assert len(wcol) == 1000 and len(set(list(wcol.values())[18:])) == 1
        code, out, _ = run(capsys, "order", "-i", str(p20), "--d", "100000")
        assert code == 0
        assert json.loads(out)["wcol_from_order"] == {
            **wcol, **{str(d): wcol["1000"] for d in range(1001, 100001)}
        }

    def test_order_makes_one_weak_reach_pass(self, p20, capsys, monkeypatch, mask_passes):
        # one reach pass for every radius on each route: the mask rounds,
        # drawn once each, and above the size rule one weak_reach call
        calls = []

        def counted(*args):
            calls.append(args)
            return weak_reach(*args)

        monkeypatch.setattr(orderings, "weak_reach", counted)
        wcol = {"1": 2, "2": 3, "3": 4, "4": 5}
        code, out, _ = run(capsys, "order", "-i", str(p20), "--d", "4")
        assert code == 0 and calls == [] and mask_passes == [[True, 5]]
        assert json.loads(out)["wcol_from_order"] == wcol
        mask_passes.clear()
        monkeypatch.setattr(graphs, "MASK_MAX_N", -1)
        code, out, _ = run(capsys, "order", "-i", str(p20), "--d", "4")
        assert code == 0 and len(calls) == 1 and mask_passes == []
        assert json.loads(out)["wcol_from_order"] == wcol


class TestInputCaps:
    """A size named by outside input is checked against INPUT_CAP before
    anything of that size is allocated: exit 3 with one line, not a
    MemoryError traceback."""

    def _refused(self, capsys, *argv):
        code, out, err = run(capsys, *argv)
        assert code == 3 and out == ""
        assert err.count("\n") == 1 and err.startswith("resource limit: ")
        assert "over the input cap 10000000" in err

    def test_edge_list_header(self, tmp_path, capsys):
        path = tmp_path / "big.edges"
        path.write_text("n 1000000000\n0 1\n")
        self._refused(capsys, "order", "-i", str(path))

    def test_set_system_ground_size(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"ground_size": 1000000000, "sets": [[0, 1]]}')
        self._refused(capsys, "color", "beck-fiala", "-i", str(path))

    def test_structure_domain_size(self, tmp_path, capsys):
        path = tmp_path / "big.json"
        path.write_text('{"n": 1000000000, "functions": {}, "predicates": {}}')
        formula = tmp_path / "phi.txt"
        formula.write_text("x1=y1")
        self._refused(capsys, "color", "qf", "-i", str(path), "--formula", str(formula))

    @pytest.mark.parametrize(
        "params",
        [
            ["path", "10000001"],
            ["grid", "3000", "3000"],
            ["complete", "5000"],
            ["complete_bipartite", "4000", "4000"],
            ["gnp", "5000", "1", "2"],
            ["all_d_subsets", "1000000", "500000"],
            ["all_d_subsets", "100", "5"],
            ["sylvester", "13"],
        ],
    )
    def test_gen_request(self, capsys, params):
        self._refused(capsys, "gen", *params)

    def test_order_radius(self, tmp_path, capsys, monkeypatch):
        # the report has one entry per radius, so --d has a cap of its own,
        # ORDER_MAX_D = 10^6; a lowered cap stands in for it, as a report
        # near 10^6 radii takes hundreds of MB to build
        assert cli.ORDER_MAX_D == 10**6
        path = tmp_path / "p4.edges"
        run(capsys, "gen", "path", "4", "-o", str(path))
        monkeypatch.setattr(cli, "ORDER_MAX_D", 6)
        code, out, _ = run(capsys, "order", "-i", str(path), "--d", "6")
        assert code == 0 and len(json.loads(out)["wcol_from_order"]) == 6
        # refused before the input is read: this path does not exist
        code, out, err = run(capsys, "order", "-i", str(tmp_path / "none.edges"), "--d", "7")
        assert (code, out, err) == (3, "", "resource limit: --d over the order report's cap 6\n")

    def test_under_the_cap_still_runs(self, tmp_path, capsys):
        # C(16, 8) = 12870 subsets: under the cap, so generated as before
        path = tmp_path / "subsets.edges"
        code, out, _ = run(capsys, "gen", "all_d_subsets", "16", "8", "-o", str(path))
        assert code == 0 and json.loads(out)["n"] == 16 + 12870
