"""The command line names no model where it fits, evaluates or loads one.

``MODEL_TYPES`` is the one registry of models: ``fit``, ``eval`` and the
fit-document loader reach a model only through the class it registers, so
adding a model means adding its module and one ``MODEL_TYPES`` row.  This
parses ``cli.py`` and fails if one of those functions holds a model name as
a literal, which is how a comparison with a model name (``cfg.model ==
"lda"``, ``name in ("gmm", "lda")``) would bring a branch on the model back.
"""

import ast
from pathlib import Path

import pytest

from meanfield import cli

GUARDED = ("cmd_fit", "cmd_eval", "_load_fit_document")


def _functions():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def _model_names(function):
    """(line, name) of every model name written as a literal in ``function``."""
    return sorted((node.lineno, node.value) for node in ast.walk(function)
                  if isinstance(node, ast.Constant) and node.value in cli.MODEL_TYPES)


@pytest.mark.parametrize("name", GUARDED)
def test_function_names_no_model(name):
    assert _model_names(_functions()[name]) == []


def test_the_guard_sees_a_comparison_with_a_model_name():
    source = "def f(cfg):\n    return cfg.model in ('gmm', 'other') or cfg.model == 'lda'\n"
    assert _model_names(ast.parse(source).body[0]) == [(2, "gmm"), (2, "lda")]
