"""Module-level LFs built by ``@labeling_function``, as users write them.

The decorator rebinds each name to its :class:`LabelingFunction`, so the
inner function is no longer the module attribute it names; the wrapper
pickles by reference in its place (``tests/test_analysis.py``).
"""

from repro.labeling.lf import labeling_function
from repro.types import ABSTAIN, POSITIVE


@labeling_function(source_type="pattern")
def lf_mentions_causes(x):
    return POSITIVE if "causes" in x.sentence.words else ABSTAIN
