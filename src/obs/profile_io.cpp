#include "src/obs/profile_io.hpp"

#include <istream>
#include <iterator>
#include <map>

#include "src/util/error.hpp"
#include "src/util/json.hpp"

namespace noceas::obs {

ProfileSnapshot read_profile_json(std::istream& is) {
  const std::string text{std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
  const json::Document parsed = json::parse(text, "profile");
  const json::View doc = parsed.root();
  NOCEAS_REQUIRE(doc.at("schema").str() == "noceas.profile.v1",
                 "unknown profile schema '" << doc.at("schema").str() << '\'');

  ProfileSnapshot snapshot;
  snapshot.lanes = static_cast<std::uint32_t>(doc.at("lanes").i64());
  std::map<std::string, std::size_t> index_of_path;
  for (const json::View r : doc.at("records")) {
    ProfileRecord rec;
    rec.path = r.at("path").str();
    rec.name = r.at("name").str();
    rec.depth = r.at("depth").i32();
    rec.count = r.at("count").u64();
    index_of_path[rec.path] = snapshot.records.size();
    snapshot.records.push_back(std::move(rec));
  }
  if (doc.has("timings")) {
    const json::View timings = doc.at("timings");
    snapshot.wall_ns = timings.at("wall_ns").i64();
    for (const json::View r : timings.at("records")) {
      const auto it = index_of_path.find(std::string(r.at("path").str()));
      NOCEAS_REQUIRE(it != index_of_path.end(),
                     "profile: timings record for unknown path '" << r.at("path").str() << '\'');
      ProfileRecord& rec = snapshot.records[it->second];
      rec.total_ns = r.at("total_ns").i64();
      rec.self_ns = r.at("self_ns").i64();
      rec.min_ns = r.at("min_ns").i64();
      rec.max_ns = r.at("max_ns").i64();
      for (const json::View b : r.at("buckets")) {
        NOCEAS_REQUIRE(b.kind() == json::Kind::Arr && b.size() == 2,
                       "profile: malformed histogram bucket");
        rec.buckets.emplace_back(b[0].i32(), b[1].u64());
      }
    }
  }
  return snapshot;
}

}  // namespace noceas::obs
