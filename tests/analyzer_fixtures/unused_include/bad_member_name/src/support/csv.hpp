#pragma once
#include <ostream>
#include <string>
#include <vector>

namespace demo::support {

class CsvWriter {
public:
    explicit CsvWriter(std::ostream& out) : out_(&out) {}

    class Row {
    public:
        void end();
        ~Row() { end(); }
    };

private:
    std::ostream* out_;
};

}  // namespace demo::support
