"""Empty placeholder: eulerq keeps no on-disk store.

`qfun` and `chartable` compute every answer from the closed formulas, so
nothing here is imported by the package.  The module stays only because
`perfbench/traced_cli.py` imports every module named in its `LAYERS`, and
`tests/test_cli.py::test_traced_names_exist` checks those imports.  Delete
it once the benchmark drops `cache` from `LAYERS`.
"""
