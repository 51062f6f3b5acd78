import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from unigraph import cli
from unigraph.cli import main
from unigraph.degseq import BRIEF_CHARS, parse_sequence, realize


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestDecompose:
    def test_plain_golden(self, capsys):
        code, out, _ = run_cli(capsys, "decompose", "-d", "4^2,2^3")
        assert code == 0
        assert out == "(0;-)^2\n(-;0)^2\ntail: 0\n"

    def test_json_golden(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "decompose", "-d", "4^2,2^3")
        assert code == 0
        assert json.loads(out) == {
            "components": [
                {"k": "0", "s": "-", "count": 2},
                {"k": "-", "s": "0", "count": 2},
            ],
            "tail": "0",
        }

    def test_compact_golden(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "compact", "-d", "4^2,2^3")
        assert code == 0
        assert json.loads(out) == {
            "components": [
                {"k": "1^2", "s": "-", "count": 1},
                {"k": "-", "s": "0^3", "count": 1},
            ],
            "tail": None,
        }
        code, out, _ = run_cli(capsys, "compact", "-d", "4^2,2^3")
        assert code == 0
        assert out == "1^2;-\n-;0^3\n"

    def test_compact_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["decompose", "-d", "4^2,2^3", "--compact"])
        assert info.value.code == 2

    def test_empty_sequence_has_no_tail(self, capsys):
        assert run_cli(capsys, "decompose", "-d", "-")[1] == "(empty)\n"
        _, out, _ = run_cli(capsys, "--json", "decompose", "-d", "-")
        assert json.loads(out) == {"components": [], "tail": None}

    def test_one_line_per_run(self, capsys):
        # K_{10^6}: one run of 999 999 dominant vertices over a one-vertex tail
        code, out, _ = run_cli(capsys, "decompose", "-d", "999999^1000000")
        assert code == 0
        assert out == "(0;-)^999999\ntail: 0\n"
        code, out, _ = run_cli(capsys, "--json", "decompose", "-d", "999999^1000000")
        assert code == 0
        assert out == (
            '{"components": [{"k": "0", "s": "-", "count": 999999}], "tail": "0"}\n'
        )

    def test_not_graphical_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "-d", "3,3,3,1")
        assert code == 1
        assert "error" in err

    def test_file_input(self, capsys, tmp_path):
        path = tmp_path / "seq.txt"
        path.write_text("2^5\n")
        code, out, _ = run_cli(capsys, "decompose", "--file", str(path))
        assert code == 0
        assert out == "tail: 2^5\n"


class TestIsUnigraph:
    def test_json_verdict_is_data(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "is-unigraph", "-d", "2^8")
        assert code == 0
        assert json.loads(out) == {
            "isUnigraph": False,
            "components": [],
            "failureIndex": 0,
        }

    def test_json_error_on_stdout(self, capsys):
        code, out, err = run_cli(capsys, "--json", "is-unigraph", "-d", "3,1")
        assert code == 1
        assert json.loads(out) == {
            "error": {"type": "NotGraphical", "message": "3,1 is not graphical"}
        }
        assert "error" in err

    def test_plain_not_unigraph_exit_1(self, capsys):
        code, out, _ = run_cli(capsys, "is-unigraph", "-d", "2^8")
        assert code == 1
        assert out == "not a unigraph\n"

    def test_plain_unigraph(self, capsys):
        code, out, _ = run_cli(capsys, "is-unigraph", "-d", "9,7,6,4^5,1^2")
        assert code == 0
        assert out == "unigraph: k1 o s1 o s1 o k1 o u3(m=1)\n"

    def test_paired_input(self, capsys):
        code, out, _ = run_cli(
            capsys, "--json", "is-unigraph", "--paired", "-d", "3,2;1^3"
        )
        assert code == 0
        assert json.loads(out)["components"] == ["s2(2,1,1,1)"]


class TestPerStripGuard:
    # K_{10^7 + 2}: 10^7 + 2 strips, past REALIZE_MAX
    TEXT = "10000001^10000002"

    def test_is_unigraph_json_error(self, capsys):
        code, out, err = run_cli(capsys, "--json", "is-unigraph", "-d", self.TEXT)
        assert code == 1
        assert json.loads(out)["error"]["type"] == "TooLarge"
        assert "error" in err

    def test_params_still_succeed(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "params", "-d", self.TEXT)
        assert code == 0
        assert json.loads(out)["omega"] == 10**7 + 2


class TestParams:
    def test_c5_golden(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "params", "-d", "2^5")
        assert code == 0
        assert json.loads(out) == {
            "omega": 2,
            "alpha": 2,
            "beta": 3,
            "chi": 3,
            "fix": 2,
            "dist": 3,
            "perfect": False,
        }

    def test_non_unigraph_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "params", "-d", "2^8")
        assert code == 1 and "error" in err

    @pytest.mark.skipif(
        not hasattr(sys, "get_int_max_str_digits"),
        reason="this interpreter converts any number of digits",
    )
    def test_json_error_on_number_past_int_digit_limit(self, capsys):
        code, out, err = run_cli(capsys, "--json", "params", "-d", "1" * 5000)
        assert code == 1
        assert json.loads(out) == {
            "error": {
                "type": "FormatError",
                "message": "degree or multiplicity with too many digits",
            }
        }
        assert "error" in err


class TestComposeRealizeSplit:
    def test_compose(self, capsys):
        code, out, _ = run_cli(capsys, "compose", "3,2;1^3", "2^3")
        assert code == 0 and out.strip() == "6,5,4^3,1^3"

    def test_compose_paired_tail(self, capsys):
        # "--" keeps argparse from reading a leading-dash part as a flag
        code, out, _ = run_cli(capsys, "compose", "--", "2^3;-", "-;0^4")
        assert code == 0 and out.strip() == "6^3,3^4"

    def test_split(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "split", "-d", "3,2,1^3")
        assert json.loads(out) == {"kind": "balanced", "paired": "3,2;1^3"}
        code, out, _ = run_cli(capsys, "split", "-d", "2^5")
        assert out.strip() == "not-split"

    def test_realize_edge_list(self, capsys):
        code, out, _ = run_cli(capsys, "realize", "-d", "1^2")
        assert code == 0
        assert out == "2 1\n0 1\n"

    def test_realize_json(self, capsys):
        code, out, _ = run_cli(capsys, "--json", "realize", "-d", "1^2")
        assert json.loads(out) == {"n": 2, "edges": [[0, 1]]}

    def test_realize_streams_the_edge_list_text(self, monkeypatch):
        # dense: 300 vertices and 30 000 edges, written vertex by vertex
        text = "250^100,200^100,150^100"
        writes = []

        class Sink:
            def write(self, chunk):
                writes.append(chunk)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["realize", "-d", text]) == 0
        g = realize(parse_sequence(text))
        assert "".join(writes) == g.to_edge_list()
        # the header, then one write per vertex with a neighbour above it
        assert len(writes) == 1 + sum(a[-1] > u for u, a in enumerate(g.adj) if a)

    def test_realize_streams_the_json_document(self, monkeypatch):
        text = "250^100,200^100,150^100"
        writes = []

        class Sink:
            def write(self, chunk):
                writes.append(chunk)

            def writelines(self, chunks):
                for chunk in chunks:
                    self.write(chunk)

        monkeypatch.setattr(sys, "stdout", Sink())
        assert main(["--json", "realize", "-d", text]) == 0
        g = realize(parse_sequence(text))
        assert "".join(writes) == json.dumps({"n": g.n, "edges": g.edges()}) + "\n"
        # the opening, one write per vertex with a neighbour above it, the
        # closing brackets and the newline
        assert len(writes) == 3 + sum(a[-1] > u for u, a in enumerate(g.adj) if a)

    def test_realize_too_large_json_error(self, capsys):
        code, out, err = run_cli(capsys, "--json", "realize", "-d", "1^100000000")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "TooLarge"
        assert "error" in err


class TestGenerate:
    def test_deterministic_golden(self, capsys):
        code, out, _ = run_cli(
            capsys, "generate", "--n", "12", "--k", "3", "--seed", "7", "--count", "2"
        )
        assert code == 0
        # byte-stable for a fixed seed
        assert out == (
            '{"sequence": "10^2,8^2,7,5,4^4,1^2", "components": '
            '["spq(p=1,q=2)", "inverse-complement:s2(2,1,1,2)", "s1"]}\n'
            '{"sequence": "11,10^3,8^3,6^3,3,2", "components": '
            '["k1", "inverse:s2(2,1,1,1)", "complement:spq(p=1,q=3)"]}\n'
        )

    def test_types_filter(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "generate",
            "--n",
            "5",
            "--k",
            "1",
            "--types",
            "c5",
        )
        assert code == 0
        assert json.loads(out) == {"sequence": "2^5", "components": ["c5"]}

    def test_infeasible_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "generate", "--n", "2", "--k", "1")
        assert code == 1 and "error" in err

    def test_unknown_type_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "generate", "--n", "5", "--k", "1", "--types", "pentagon"
        )
        assert code == 1 and "pentagon" in err


class TestVerify:
    def test_small_verify_ok(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "unigraph", "--max-n", "5")
        assert code == 0
        assert json.loads(out) == {"check": "unigraph", "max_n": 5, "ok": True}

    def test_all_checks_small(self, capsys):
        for check in ("roundtrip", "params", "fixdist", "aut"):
            code, out, _ = run_cli(capsys, "verify", check, "--max-n", "5")
            assert code == 0, check
            assert json.loads(out)["ok"] is True

    @pytest.mark.parametrize("check", cli.VERIFY_CHECKS)
    def test_a_size_past_the_oracle_guard_is_refused_at_once(self, capsys, check):
        # each check carries the guard of the oracle function it calls, and
        # a size past it, or a negative one, is refused before enumerating
        from unigraph import oracle, verify

        guards = {
            "unigraph": oracle.MAX_CLASSES, "roundtrip": oracle.MAX_PARAMS,
            "params": oracle.MAX_PARAMS, "fixdist": oracle.MAX_FIXDIST,
            "aut": oracle.MAX_ENUM,
        }
        cap = verify.CHECKS[check][2]
        assert cap == guards[check]
        start = time.perf_counter()
        for max_n in ("40", str(cap + 1), "-1"):
            code, out, err = run_cli(capsys, "verify", check, "--max-n", max_n)
            assert code == 1 and out == "", max_n
            want = f"verify {check} takes --max-n from 0 to {cap}, got {max_n}"
            assert err == f"error: {want}\n"
            code, out, _ = run_cli(capsys, "--json", "verify", check, "--max-n", max_n)
            assert code == 1
            assert json.loads(out)["error"]["type"] == "TooLarge"
        assert time.perf_counter() - start < 1

    def test_graphical_sequences_refuses_past_its_guard_when_called(self):
        from unigraph import oracle
        from unigraph.errors import TooLarge

        with pytest.raises(TooLarge):
            oracle.graphical_sequences(oracle.MAX_PARAMS + 1)
        assert len(list(oracle.graphical_sequences(4))) == 11

    def test_unknown_check_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "no-such-check"])
        assert exc.value.code == 2

    def test_cli_import_leaves_the_oracle_unloaded(self):
        # verify imports the brute-force oracle, so only the verify
        # subcommand loads it; its choices still name every check
        code = (
            "import sys, unigraph.cli as cli\n"
            "print(sorted(m for m in ('unigraph.verify', 'unigraph.oracle')"
            " if m in sys.modules))\n"
            "sub = next(a for a in cli.build_parser()._actions"
            " if a.dest == 'command')\n"
            "check = next(a for a in sub.choices['verify']._actions"
            " if a.dest == 'check')\n"
            "from unigraph import verify\n"
            "print(list(check.choices) == sorted(verify.CHECKS))\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        out = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True,
            text=True, check=True,
        ).stdout
        assert out.split("\n")[:2] == ["[]", "True"]

    @staticmethod
    def _loaded_after(argv):
        """The unigraph submodules, and dataclasses if loaded, after
        ``import unigraph`` and after ``main(argv)``, in a fresh process."""
        code = (
            "import contextlib, io, sys\n"
            "def loaded():\n"
            "    names = [m.partition('.')[2] for m in sys.modules"
            " if m.startswith('unigraph.')]\n"
            "    return sorted(names) + ['dataclasses'] * ('dataclasses' in sys.modules)\n"
            "import unigraph\n"
            "print(loaded())\n"
            "from unigraph.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({argv!r}) == 0\n"
            "print(loaded())\n"
        )
        src = str(Path(cli.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, check=True,
        ).stdout
        return [eval(line) for line in out.splitlines()]

    def test_a_call_loads_only_the_modules_it_uses(self):
        # the package imports its submodules on first use, and no record
        # class needs dataclasses
        after_import, after_realize = self._loaded_after(["realize", "-d", "2^3"])
        assert after_import == ["_kernel", "errors"]
        assert "graphcore" in after_realize
        assert not {"unitype", "gen", "params", "decomp", "split"} & set(after_realize)
        _, after_is_unigraph = self._loaded_after(["--json", "is-unigraph", "-d", "3^4"])
        assert "unitype" in after_is_unigraph
        assert not {"gen", "graphcore", "params", "split"} & set(after_is_unigraph)
        # a split tail is typed off the kernel's record, not by unigraph.split
        _, after_params = self._loaded_after(["params", "-d", "3^2,1^4"])
        assert "params" in after_params
        assert not {"gen", "graphcore", "split"} & set(after_params)
        assert "dataclasses" not in after_realize + after_is_unigraph + after_params


class TestUsage:
    def test_missing_input_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose"])
        assert exc.value.code == 2

    def test_unknown_flag_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "-d", "2^5", "--frobnicate"])
        assert exc.value.code == 2

    def test_exclusive_input_sources(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["decompose", "-d", "2^5", "--file", "x"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv, start",
        [
            (
                ["decompose", "-d", "1^0," + ",".join(["1"] * 10**5)],
                "bad multiplicity in '1^0,1,1",
            ),
            (
                ["compose", ",".join(["3"] * 50000) + ";1", "1"],
                "invalid paired sequence '3,3,3",
            ),
        ],
        ids=["zero-multiplicity", "paired-validation"],
    )
    def test_long_bad_text_error_is_bounded(self, capsys, argv, start):
        code, out, err = run_cli(capsys, "--json", *argv)
        assert code == 1
        error = json.loads(out)["error"]
        assert error["type"] == "FormatError"
        assert error["message"].startswith(start)
        assert len(error["message"]) <= BRIEF_CHARS
        assert len(err) <= BRIEF_CHARS + len("error: \n")

    def test_bad_sequence_text_exit_1(self, capsys):
        code, _, err = run_cli(capsys, "decompose", "-d", "2^^5")
        assert code == 1 and "error" in err


_README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_block(heading, lang=""):
    """The lines of the first fenced block after a README heading."""
    start = _README.index(f"```{lang}\n", _README.index(f"\n## {heading}\n"))
    body = start + len(lang) + 4
    return _README[body : _README.index("```", body)].splitlines()


class TestReadme:
    """The README's examples run, and print what its text says."""

    def test_every_cli_example_exits_0(self, capsys, atlas8):
        import shlex

        lines = _readme_block("CLI")
        assert len(lines) == 10
        for line in lines:
            prog, *argv = shlex.split(line, comments=True)
            assert prog == "unigraph"
            assert run_cli(capsys, *argv)[0] == 0, line

    def test_stated_decompose_output(self, capsys):
        import re

        text = " ".join(_README.split())
        found = re.search(
            r'`decompose -d "([^"]*)"` prints `([^`]*)`, `([^`]*)` and `([^`]*)`', text
        )
        code, out, _ = run_cli(capsys, "decompose", "-d", found[1])
        assert code == 0
        assert out.splitlines() == list(found.groups()[1:])

    def test_library_comments(self):
        lines = _readme_block("Library", "python")
        env: dict = {}
        exec(lines[0], env)
        got = []
        for line in lines[1:]:
            if not line:
                continue
            code, _, comment = line.partition("#")
            if "=" in code:
                exec(code, env)
            else:
                env["_value"] = eval(code, env)
            got.append(comment.strip())
        d, report = env["d"], env["report"]
        runs = ", ".join(f"({c}, {m})" for c, m in d.runs)
        assert got == [
            "",
            f"runs [{runs}], tail {d.tail}",
            " o ".join(report.tags()),
            repr(env["_value"]),
        ]
