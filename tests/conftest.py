"""Session setup shared by the test modules."""

import warnings

# To print an explicit-example patch for a failing property, hypothesis
# imports hypothesis.extra._patching, whose import of libcst may warn that
# mypy_extensions.TypedDict is deprecated.  Under -W error that warning
# turns the first failing property into an INTERNALERROR that ends the
# run; importing the module once here, with the warning ignored, lets the
# run go on and report every failure.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
