import pytest
from hypothesis import settings

from feistel_lab.bits import split_blocks

# Property tests draw the same examples on every run, so a tier-1 run replays
# like every other seeded experiment in the lab.
settings.register_profile("replay", derandomize=True)
settings.load_profile("replay")


@pytest.fixture
def leftmost_first_probe():
    """Shared block-convention probe: block 0 is the leftmost, most
    significant chunk of the flat state. Used by the structure and game
    suites so both pin the same layout."""
    flat = 0b110110
    state = split_blocks(flat, 2, 3)
    expected = (0b11, 0b01, 0b10)
    return flat, state, expected
