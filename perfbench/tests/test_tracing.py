from tracing import END, NAME, PARENT, Patches, Tracer, durations, self_times


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["route", 0.0, 10.0, -1, 0],
        ["hashing", 1.0, 4.0, 0, 0],
        ["inner", 2.0, 3.0, 1, 0],
        ["sketch", 5.0, 9.0, 0, 0],
        ["route", 20.0, 22.0, -1, 0],
    ]
    own = self_times(spans)
    assert own == {"route": 10.0 - 3.0 - 4.0 + 2.0, "hashing": 2.0, "inner": 1.0, "sketch": 4.0}
    assert sum(own.values()) == 10.0 + 2.0  # self times partition the top-level spans
    assert durations(spans, "route") == [10.0, 2.0]


def test_nested_same_name_spans_are_not_double_counted():
    spans = [["classify", 0.0, 6.0, -1, 0], ["classify", 1.0, 5.0, 0, 0]]
    assert self_times(spans) == {"classify": 6.0}


def test_wrappers_record_parents_and_patches_restore_inherited_methods():
    class Base:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    class Child(Base):
        pass

    tracer = Tracer()
    patches = Patches()
    patches.replace(Child, "outer", lambda fn: tracer.wrap("outer", fn))
    patches.replace(Child, "inner", lambda fn: tracer.wrap("inner", fn))
    assert Child().outer() == 2
    patches.undo()
    assert "outer" not in vars(Child) and "inner" not in vars(Child)
    assert Child().outer() == 2
    assert [span[NAME] for span in tracer.spans] == ["outer", "inner"]
    assert [span[PARENT] for span in tracer.spans] == [-1, 0]
    assert all(span[END] > 0 for span in tracer.spans)
