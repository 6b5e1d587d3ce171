"""Regression constants shared by several test modules.

They live outside ``conftest.py``: ``tests/`` and ``perfbench/tests/`` each
have a ``conftest.py``, and when one pytest run collects both, the name
``conftest`` no longer names this directory's module.
"""

#: USO counts per shape, frozen from exhaustive enumeration; 2x2 = 12 is
#: also forced analytically: of the 16 orientations, 2 are directed 4-cycles
#: and 2 have two sinks.
USO_COUNTS = {
    (1, 1): 1,
    (1, 2): 2,
    (2, 1): 2,
    (1, 3): 6,
    (3, 1): 6,
    (2, 2): 12,
    (2, 3): 132,
    (3, 2): 132,
    (3, 3): 5796,
}
