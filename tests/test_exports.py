"""The package's public surface: `duss.__all__` lists exactly what
`duss/__init__.py` imports, every listed name resolves, and the functions
the benchmark traces keep their names."""

import ast
import importlib
import inspect
import os

import duss


def test_all_matches_imports_and_resolves():
    with open(os.path.join(os.path.dirname(duss.__file__), "__init__.py")) as fh:
        tree = ast.parse(fh.read())
    imported = {alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    assert len(duss.__all__) == len(set(duss.__all__))
    assert set(duss.__all__) == imported
    for name in duss.__all__:
        assert getattr(duss, name) is not None, name


# The functions the benchmark's traced mode times by module and name; one
# renamed or inlined would read 0 s there instead of failing.
TRACED = {
    "dsp": ["analyze", "griffin_lim", "estimate_f0", "read_wav", "mel_filterbank"],
    "codec": ["kmeans_pp_init", "lloyd_kmeans", "nearest_code", "encode"],
    "toylm": ["logits", "train_ngram"],
    "sampler": ["sample_token", "generate"],
    "tuner": ["tune"],
    "metrics": ["mcd", "log_f0_rmse"],
    "containers": ["load_ngram", "save_codec", "save_tokens", "save_ngram"],
}


def test_traced_names_are_public_module_functions():
    for layer, names in TRACED.items():
        module = importlib.import_module("duss." + layer)
        for name in names:
            fn = getattr(module, name, None)
            assert inspect.isfunction(fn) and fn.__module__ == module.__name__, \
                f"{layer}.{name}"
    assert inspect.isfunction(importlib.import_module("duss.tuner").CentroidScorer.score)
