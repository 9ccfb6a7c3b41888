// Fixture: a packet allocated outside the pool -> pool-discipline.
struct Packet {
  int flow_id = 0;
};

struct RogueSource {
  Packet* make() { return new Packet; }
};
