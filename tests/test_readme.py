"""The README's examples run as written: the Python quick start states the
values its comments give, and each line of the shell examples exits as
stated (0 unless its comment says "exits N")."""
import ast
import io
import pathlib
import re
import shlex

from aeq.cli import main

README = pathlib.Path(__file__).parents[1] / "README.md"


def _blocks(lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(), flags=re.M | re.S)


def test_python_examples_state_their_values():
    scope = {}
    shown = []
    for block in _blocks("python"):
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            code = compile(ast.Module([stmt], []), "README.md", "exec")
            if not isinstance(stmt, ast.Expr):
                exec(code, scope)
                continue
            value = eval(compile(ast.Expression(stmt.value), "README.md", "eval"), scope)
            comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
            assert comment.startswith(repr(value)), (ast.unparse(stmt), comment)
            shown.append(repr(value))
    assert shown == ["True", "True", "(5, 0)", "True", "Fraction(0, 1)"]


def _shell_examples():
    """(argv, stdin text or None, expected exit code) of each command of the
    shell examples block, the one that starts with ``aeq construct``."""
    (block,) = [b for b in _blocks("sh") if b.startswith("aeq construct")]
    # an echo piped into aeq spans lines: join each quoted text to its command
    commands = re.findall(r'^(?:echo "[^"]*" \| )?aeq .*$', block, flags=re.M)
    out = []
    for command in commands:
        stdin, _, command = command.rpartition(" | ")
        exits = re.search(r"# exits (\d)", command)
        argv = shlex.split(command, comments=True)[1:]
        out.append((argv, shlex.split(stdin)[1] if stdin else None,
                    int(exits.group(1)) if exits else 0))
    return out


def test_shell_examples_exit_as_stated(tmp_path, monkeypatch, capsys, corpus_path):
    examples = _shell_examples()
    assert [code for _, _, code in examples] == [0] * 7 + [1, 0]
    monkeypatch.chdir(tmp_path)  # the examples write and read pts.json here
    for argv, stdin, code in examples:
        argv = [str(corpus_path) if a == "tests/data/triangle_free_upto8.txt" else a
                for a in argv]
        if stdin is not None:
            monkeypatch.setattr("sys.stdin", io.StringIO(stdin))
        assert main(argv) == code, argv
        capsys.readouterr()
