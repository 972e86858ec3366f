"""Long-tailed recognition treated as two-phase continual learning.

Build long-tailed datasets, train strongly convex classifiers, verify
minimizer-distance bounds, and run head-then-tail training under
forgetting-mitigation strategies with a full LTR metrics suite.
"""

__version__ = "0.1.0"
