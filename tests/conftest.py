import numpy as np
from hypothesis import strategies as st

acceptance_verdicts = []

# any JSON value, nested at most a few levels deep: input for the reader fuzz tests
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-10, 10)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=5),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=5,
)


def named_views(model, flat):
    """Name -> that tensor's view into `flat`, an array in the model's arena layout
    (a snapshot, say), read through the model's tensor directory."""
    return {name: flat[meta["offset"]:meta["offset"] + int(np.prod(meta["shape"]))]
            .reshape(meta["shape"]) for name, meta in model.directory.items()}


def pytest_terminal_summary(terminalreporter):
    if acceptance_verdicts:
        terminalreporter.section("acceptance verdicts")
        for line in acceptance_verdicts:
            terminalreporter.write_line(line)
