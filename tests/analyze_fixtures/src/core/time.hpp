// Fixture (negative control): core/time.hpp owns the SimTime unit
// factors, so its hand-scaled casts are exempt from simtime-discipline.
#pragma once

using SimTime = long long;

constexpr SimTime from_sec(double s) { return static_cast<SimTime>(s * 1e9); }
