"""Unit and property tests for the persistent hash table (Fig. 4)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CapacityError, CorruptDataError
from repro.nvm.allocator import PoolAllocator
from repro.nvm.device import DeviceProfile
from repro.nvm.memory import SimulatedMemory
from repro.pstruct.phashtable import _HEADER, PHashTable, hash64


def make_allocator(size=1 << 22):
    mem = SimulatedMemory(DeviceProfile.nvm(), size)
    return PoolAllocator(mem, base=0, capacity=size)


class TestHash64:
    def test_deterministic(self):
        assert hash64(12345) == hash64(12345)

    def test_spreads_consecutive_keys(self):
        hashes = {hash64(i) & 0xFF for i in range(100)}
        assert len(hashes) > 50  # low bits well-mixed

    def test_fits_in_64_bits(self):
        assert 0 <= hash64(2**64 - 1) < 2**64


class TestBasics:
    def test_put_get(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(10, 100)
        assert table.get(10) == 100
        assert len(table) == 1

    def test_get_missing_returns_default(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        assert table.get(99) is None
        assert table.get(99, -1) == -1

    def test_put_overwrites(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(1, 10)
        table.put(1, 20)
        assert table.get(1) == 20
        assert len(table) == 1

    def test_add_accumulates(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        assert table.add(7, 3) == 3
        assert table.add(7, 4) == 7
        assert table.get(7) == 7

    def test_negative_values_roundtrip(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(1, -42)
        assert table.get(1) == -42

    def test_contains(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(5, 1)
        assert 5 in table
        assert 6 not in table

    def test_delete(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(5, 1)
        assert table.delete(5)
        assert 5 not in table
        assert len(table) == 0
        assert not table.delete(5)

    def test_reinsert_after_delete(self):
        table = PHashTable.create(make_allocator(), expected_entries=16)
        table.put(5, 1)
        table.delete(5)
        table.put(5, 2)
        assert table.get(5) == 2
        assert len(table) == 1

    def test_items_and_to_dict(self):
        table = PHashTable.create(make_allocator(), expected_entries=64)
        expected = {i: i * i for i in range(40)}
        for key, value in expected.items():
            table.put(key, value)
        assert table.to_dict() == expected

    def test_capacity_power_of_two(self):
        table = PHashTable.create(make_allocator(), expected_entries=100)
        assert table.capacity & (table.capacity - 1) == 0
        assert table.capacity >= 100 / 0.7

    def test_invalid_expected_entries(self):
        with pytest.raises(ValueError):
            PHashTable.create(make_allocator(), expected_entries=0)


class TestCapacitySemantics:
    def test_presized_table_never_rehashes(self):
        table = PHashTable.create(make_allocator(), expected_entries=200)
        for i in range(200):
            table.put(i, i)
        assert table.reconstructions == 0

    def test_fixed_table_overflow_raises(self):
        table = PHashTable.create(make_allocator(), expected_entries=4)
        with pytest.raises(CapacityError):
            for i in range(100):
                table.put(i, i)

    def test_growable_table_rehashes(self):
        table = PHashTable.create(
            make_allocator(), expected_entries=4, growable=True
        )
        for i in range(200):
            table.put(i, i)
        assert len(table) == 200
        assert table.reconstructions >= 3
        assert table.to_dict() == {i: i for i in range(200)}

    def test_rehash_costs_more_than_presized(self):
        """Upper-bound pre-sizing removes reconstruction traffic (SectionIV-C)."""
        alloc_sized = make_allocator()
        sized = PHashTable.create(alloc_sized, expected_entries=512)
        for i in range(500):
            sized.put(i, i)
        sized_cost = alloc_sized.memory.clock.ns

        alloc_grow = make_allocator()
        grow = PHashTable.create(alloc_grow, expected_entries=4, growable=True)
        for i in range(500):
            grow.put(i, i)
        grow_cost = alloc_grow.memory.clock.ns
        assert grow_cost > 1.5 * sized_cost

    def test_tombstones_count_toward_load(self):
        table = PHashTable.create(make_allocator(), expected_entries=8)
        # churn below the live-count cap but above it with tombstones
        with pytest.raises(CapacityError):
            for i in range(1000):
                table.put(i, i)
                table.delete(i)


class TestCollisionBehaviour:
    def test_colliding_keys_all_stored(self):
        table = PHashTable.create(make_allocator(), expected_entries=64)
        capacity = table.capacity
        # Craft keys whose initial probe slot collides.
        base = 1
        colliders = [base]
        candidate = base + 1
        while len(colliders) < 5 and candidate < 100000:
            if (hash64(candidate) & (capacity - 1)) == (
                hash64(base) & (capacity - 1)
            ):
                colliders.append(candidate)
            candidate += 1
        for key in colliders:
            table.put(key, key * 2)
        for key in colliders:
            assert table.get(key) == key * 2

    def test_probe_sequence_covers_table(self):
        """Triangular probing on a power-of-two table is a permutation."""
        capacity = 64
        slots = {(0 + (i * (i + 1)) // 2) % capacity for i in range(capacity)}
        assert len(slots) == capacity


class TestPersistence:
    def test_attach_reopens_contents(self):
        alloc = make_allocator()
        table = PHashTable.create(alloc, expected_entries=32)
        table.put(3, 33)
        reopened = PHashTable.attach(alloc, table.header_offset)
        assert reopened.get(3) == 33
        assert len(reopened) == 1

    def test_attach_after_rehash(self):
        alloc = make_allocator()
        table = PHashTable.create(alloc, expected_entries=4, growable=True)
        for i in range(50):
            table.put(i, i)
        reopened = PHashTable.attach(alloc, table.header_offset)
        assert reopened.to_dict() == {i: i for i in range(50)}

    @pytest.mark.parametrize(
        "overrides",
        [
            {"capacity": 48},  # not a power of two
            {"capacity": 0},
            {"count": 40, "tombstones": 30},  # more entries than 64 slots
            {"data_offset": 1 << 22},  # past the allocator's region
            {"data_offset": (1 << 22) - 64 * 17 + 1},  # ends 1 B past it
        ],
    )
    def test_attach_rejects_a_corrupt_header(self, overrides):
        alloc = make_allocator()
        table = PHashTable.create(alloc, expected_entries=32)
        mem = alloc.memory
        names = ("capacity", "count", "flags", "tombstones", "data_offset")
        fields = dict(zip(names, _HEADER.unpack(mem.peek(table.header_offset, 24))))
        assert fields["capacity"] == 64
        fields.update(overrides)
        mem.poke(table.header_offset, _HEADER.pack(*fields.values()))
        before = mem.clock.ns
        with pytest.raises(CorruptDataError):
            PHashTable.attach(alloc, table.header_offset)
        # The checks are host-side: only the header read is charged.
        assert mem.clock.ns - before == pytest.approx(1.0)

    def test_survives_flush_and_crash(self):
        alloc = make_allocator()
        table = PHashTable.create(alloc, expected_entries=32)
        table.put(1, 11)
        alloc.memory.flush()
        alloc.memory.crash()
        reopened = PHashTable.attach(alloc, table.header_offset)
        assert reopened.get(1) == 11


@settings(max_examples=40, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["put", "add", "delete", "get"]),
            st.integers(0, 30),
            st.integers(-1000, 1000),
        ),
        max_size=80,
    )
)
def test_property_matches_python_dict(ops):
    """PHashTable behaves exactly like a dict under a random op mix."""
    table = PHashTable.create(make_allocator(), expected_entries=8, growable=True)
    model: dict[int, int] = {}
    for op, key, value in ops:
        if op == "put":
            table.put(key, value)
            model[key] = value
        elif op == "add":
            table.add(key, value)
            model[key] = model.get(key, 0) + value
        elif op == "delete":
            assert table.delete(key) == (key in model)
            model.pop(key, None)
        else:
            assert table.get(key, 0) == model.get(key, 0)
    assert table.to_dict() == model
    assert len(table) == len(model)
