"""The one way the tests run the command line in this process."""
import contextlib
import io

import pytest

from corrkit.cli import main


def cli_run(*argv):
    """(exit code, stdout, stderr) of `corrkit argv...` run through
    `cli.main`; arguments are passed through `str`, and the `SystemExit`
    of `--help` or a usage error becomes its code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = main([str(a) for a in argv])
        except SystemExit as exc:
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


@pytest.fixture(scope="session", name="cli_run")
def cli_run_fixture():
    return cli_run
