"""Tests for the labelled derivation of RNG streams."""

import numpy as np

from wshift._seeds import _label_key, derive_seed


def test_a_number_and_its_text_share_a_key():
    # numpy 2 changed repr(np.float64(0.1)) to 'np.float64(0.1)'; the key reads str, which
    # is '0.1' for all three under numpy 1 and 2 alike
    assert len({_label_key(0.1), _label_key(np.float64(0.1)), _label_key("0.1")}) == 1
    assert derive_seed(3, "p", np.float64(0.1)) == derive_seed(3, "p", "0.1")
