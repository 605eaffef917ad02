"""Field-by-field references for the struct accessors.

``StructInstance`` and ``StructView`` read one field-table entry per
access and go straight to ``SharedHeap.read_u``/``write_u``.  The
classes here are those accessors as they were: every access looks the
field up by name, checks the index, builds the KSan label, annotates,
and reads or writes through ``SharedHeap.read``/``write``.  The tests
run both and compare everything observable.
"""

from repro.errors import ReproError


def _annotate(heap, kernel, label, atomic=False):
    monitor = heap.monitor
    if monitor is not None:
        monitor.annotate(kernel, label, atomic)


def _read_u(heap, addr, size):
    return int.from_bytes(heap.read(addr, size), "little")


def _write_u(heap, addr, size, value):
    heap.write(addr, int(value).to_bytes(size, "little", signed=False))


def _check_index(f, index):
    if not (0 <= index < f.count):
        raise ReproError(f"index {index} out of bounds for {f.name}[{f.count}]")


class FieldByFieldInstance:
    """``StructInstance`` with a lookup per access (signed reads)."""

    def __init__(self, defn, heap, addr, kernel="linux"):
        self.defn, self.heap, self.addr, self.kernel = defn, heap, addr, kernel

    def _loc(self, field, index):
        f = self.defn.field(field)
        _check_index(f, index)
        return f, self.addr + self.defn.offset_of(field) + index * f.elem.size

    def get(self, field, index=0, *, atomic=False):
        f, addr = self._loc(field, index)
        _annotate(self.heap, self.kernel, f"{self.defn.name}.{field}",
                  atomic=atomic)
        raw = _read_u(self.heap, addr, f.elem.size)
        if f.elem.signed and raw >= 1 << (8 * f.elem.size - 1):
            raw -= 1 << (8 * f.elem.size)
        return raw

    def set(self, field, value, index=0, *, atomic=False):
        f, addr = self._loc(field, index)
        if value < 0:
            value += 1 << (8 * f.elem.size)
        _annotate(self.heap, self.kernel, f"{self.defn.name}.{field}",
                  atomic=atomic)
        _write_u(self.heap, addr, f.elem.size, value)

    def add(self, field, delta, index=0):
        f, addr = self._loc(field, index)
        label = f"{self.defn.name}.{field}"
        _annotate(self.heap, self.kernel, label, atomic=True)
        raw = _read_u(self.heap, addr, f.elem.size)
        raw = (raw + delta) % (1 << (8 * f.elem.size))
        _annotate(self.heap, self.kernel, label, atomic=True)
        _write_u(self.heap, addr, f.elem.size, raw)
        return raw


class FieldByFieldView:
    """``StructView`` with a lookup per access (unsigned reads)."""

    def __init__(self, layout, heap, addr, kernel="mckernel"):
        self.layout, self.heap, self.addr, self.kernel = (layout, heap, addr,
                                                          kernel)

    def _loc(self, field, index):
        f = self.layout.field(field)
        _check_index(f, index)
        return f, self.addr + f.offset + index * f.elem_size

    def get(self, field, index=0, *, atomic=False):
        f, addr = self._loc(field, index)
        _annotate(self.heap, self.kernel,
                  f"{self.layout.struct_name}.{field}", atomic=atomic)
        return _read_u(self.heap, addr, f.elem_size)

    def set(self, field, value, index=0, *, atomic=False):
        f, addr = self._loc(field, index)
        if value < 0:
            value += 1 << (8 * f.elem_size)
        _annotate(self.heap, self.kernel,
                  f"{self.layout.struct_name}.{field}", atomic=atomic)
        _write_u(self.heap, addr, f.elem_size, value)

    def add(self, field, delta, index=0):
        f, addr = self._loc(field, index)
        label = f"{self.layout.struct_name}.{field}"
        _annotate(self.heap, self.kernel, label, atomic=True)
        raw = _read_u(self.heap, addr, f.elem_size)
        raw = (raw + delta) % (1 << (8 * f.elem_size))
        _annotate(self.heap, self.kernel, label, atomic=True)
        _write_u(self.heap, addr, f.elem_size, raw)
        return raw
