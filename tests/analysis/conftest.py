"""Shared fixture-package builder for the static-analyzer tests."""

import textwrap

import pytest


@pytest.fixture
def make_pkg(tmp_path):
    """Materialize ``{relpath: source}`` as a package dir named ``pkg``.

    Returns the package root path (suitable for ``check_package``).
    Sources are dedented; intermediate ``__init__.py`` files must be
    listed explicitly (an empty string is fine).
    """

    def _make(files, name="pkg"):
        root = tmp_path / name
        for rel, source in files.items():
            path = root / rel
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(textwrap.dedent(source))
        if not (root / "__init__.py").exists():
            (root / "__init__.py").write_text("")
        return str(root)

    return _make
