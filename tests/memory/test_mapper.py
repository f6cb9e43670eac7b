"""Map direction semantics."""

import pytest

from repro.errors import MappingError
from repro.memory.space import MapDirection


class TestMapDirection:
    def test_parse(self):
        assert MapDirection.parse("tofrom") is MapDirection.TOFROM
        assert MapDirection.parse(" TO ") is MapDirection.TO

    def test_parse_unknown(self):
        with pytest.raises(MappingError):
            MapDirection.parse("sideways")

    def test_copy_semantics(self):
        assert MapDirection.TO.copies_in and not MapDirection.TO.copies_out
        assert MapDirection.FROM.copies_out and not MapDirection.FROM.copies_in
        assert MapDirection.TOFROM.copies_in and MapDirection.TOFROM.copies_out
        assert not MapDirection.ALLOC.copies_in and not MapDirection.ALLOC.copies_out
