"""A fixed Hypothesis profile for CI.

``pytest --hypothesis-profile=ci`` draws the same examples on every run
and sets no per-example deadline, so a property test over random graphs
cannot fail on a slow runner by timing alone, nor pass or fail by luck.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True, deadline=None)
