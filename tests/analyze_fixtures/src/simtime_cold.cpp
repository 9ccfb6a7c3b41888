// Fixture: hand-scaled SimTime unit factor in cold setup code, wrapped
// over two lines -> simtime-discipline, reported where the cast starts.
using SimTime = long long;

struct StartTime {
  SimTime at = 0;

  void build(double seconds) {
    at = static_cast<SimTime>(
        seconds * 1e9);
  }
};
