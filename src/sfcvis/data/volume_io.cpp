#include "sfcvis/data/volume_io.hpp"

#include <cstdint>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace sfcvis::data {
namespace {

std::filesystem::path payload_path_for(const std::filesystem::path& header_path) {
  std::filesystem::path p = header_path;
  p.replace_extension(".raw");
  return p;
}

}  // namespace

void save_bov(const std::filesystem::path& header_path, const RawVolume& volume) {
  if (volume.samples.size() != volume.extents.size()) {
    throw std::runtime_error("save_bov: sample count does not match extents");
  }
  const auto payload = payload_path_for(header_path);

  std::ofstream raw(payload, std::ios::binary);
  if (!raw) {
    throw std::runtime_error("save_bov: cannot open " + payload.string());
  }
  raw.write(reinterpret_cast<const char*>(volume.samples.data()),
            static_cast<std::streamsize>(volume.samples.size() * sizeof(float)));
  if (!raw) {
    throw std::runtime_error("save_bov: write failed for " + payload.string());
  }

  std::ofstream header(header_path);
  if (!header) {
    throw std::runtime_error("save_bov: cannot open " + header_path.string());
  }
  header << "DATA_FILE: " << payload.filename().string() << "\n"
         << "DATA_SIZE: " << volume.extents.nx << " " << volume.extents.ny << " "
         << volume.extents.nz << "\n"
         << "DATA_FORMAT: FLOAT\n"
         << "VARIABLE: value\n"
         << "DATA_ENDIAN: LITTLE\n"
         << "CENTERING: zonal\n";
  if (!header) {
    throw std::runtime_error("save_bov: write failed for " + header_path.string());
  }
}

RawVolume load_bov(const std::filesystem::path& header_path) {
  std::ifstream header(header_path);
  if (!header) {
    throw std::runtime_error("load_bov: cannot open " + header_path.string());
  }
  RawVolume out;
  std::string data_file;
  std::string line;
  while (std::getline(header, line)) {
    std::istringstream ls(line);
    std::string key;
    ls >> key;
    if (key == "DATA_FILE:") {
      ls >> data_file;
    } else if (key == "DATA_SIZE:") {
      ls >> out.extents.nx >> out.extents.ny >> out.extents.nz;
    } else if (key == "DATA_FORMAT:") {
      std::string fmt;
      ls >> fmt;
      if (fmt != "FLOAT") {
        throw std::runtime_error("load_bov: unsupported DATA_FORMAT " + fmt);
      }
    }
  }
  if (data_file.empty() || out.extents.empty()) {
    throw std::runtime_error("load_bov: missing DATA_FILE or DATA_SIZE in " +
                             header_path.string());
  }
  // Bound each axis before sizing the payload: unchecked, the product of
  // three header values can wrap size_t.
  try {
    core::validate_extents(out.extents);
  } catch (const std::invalid_argument& err) {
    throw std::runtime_error("load_bov: bad DATA_SIZE in " + header_path.string() + ": " +
                             err.what());
  }

  const auto payload = header_path.parent_path() / data_file;
  std::ifstream raw(payload, std::ios::binary);
  if (!raw) {
    throw std::runtime_error("load_bov: cannot open " + payload.string());
  }
  // Check the payload holds DATA_SIZE samples before allocating them, so a
  // valid but huge DATA_SIZE beside a short file fails here instead of
  // zero-filling gigabytes first. Compare element counts: the byte count
  // can overflow size_t.
  std::error_code ec;
  const std::uintmax_t payload_bytes = std::filesystem::file_size(payload, ec);
  if (ec || payload_bytes / sizeof(float) < out.extents.size()) {
    throw std::runtime_error("load_bov: payload " + payload.string() +
                             " is unreadable or holds fewer samples than DATA_SIZE");
  }
  out.samples.resize(out.extents.size());
  raw.read(reinterpret_cast<char*>(out.samples.data()),
           static_cast<std::streamsize>(out.samples.size() * sizeof(float)));
  if (raw.gcount() !=
      static_cast<std::streamsize>(out.samples.size() * sizeof(float))) {
    throw std::runtime_error("load_bov: payload truncated: " + payload.string());
  }
  return out;
}

}  // namespace sfcvis::data
