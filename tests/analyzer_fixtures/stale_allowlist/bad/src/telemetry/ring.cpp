// Telemetry source that never mentions the stale stop function.
void drain_ring(long* slots, long count) {
    for (long i = 0; i < count; ++i) slots[i] = 0;
}
