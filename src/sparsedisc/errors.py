"""Exception types shared across the package, and the cap on sizes read
from outside input."""

# bounds every size an input names before anything of that size is
# allocated: a vertex count, a ground size, a domain size, the vertices
# and candidate edges of a generated graph; the same 10^7 as the other
# desk-scale caps
INPUT_CAP = 10**7


class ParseError(ValueError):
    """Malformed textual input (edge lists, formulas, colorings)."""


class ResourceLimitError(RuntimeError):
    """An exhaustive operation was asked to exceed its desk-scale cap."""


def check_input_size(what: str, size: int) -> None:
    if size > INPUT_CAP:
        raise ResourceLimitError(f"{what} over the input cap {INPUT_CAP}")
